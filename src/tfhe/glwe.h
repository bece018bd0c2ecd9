/**
 * @file
 * GLWE ciphertexts and keys (Section II-A).
 *
 * A GLWE ciphertext of a message polynomial M(x) under key
 * S = (S_1..S_k) is C = (A_1..A_k, B) with B = sum A_i * S_i + M + E in
 * T_q[X]/(X^N + 1). The accumulator (ACC) of blind rotation and the
 * test polynomial (TP) are GLWE ciphertexts.
 */

#ifndef MORPHLING_TFHE_GLWE_H
#define MORPHLING_TFHE_GLWE_H

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"
#include "tfhe/polynomial.h"

namespace morphling::tfhe {

/** A GLWE secret key: k binary ring polynomials. */
class GlweKey
{
  public:
    GlweKey() = default;
    GlweKey(const TfheParams &params, std::vector<IntPolynomial> polys);

    /** Sample a uniform binary key (k polynomials of N bits). */
    static GlweKey generate(const TfheParams &params, Rng &rng);

    const TfheParams &params() const { return *params_; }
    unsigned dimension() const
    {
        return polys_ ? static_cast<unsigned>(polys_->size()) : 0;
    }
    const IntPolynomial &poly(unsigned i) const { return (*polys_)[i]; }

    /**
     * Flatten to the extracted LWE key of dimension kN
     * (s'_{iN+j} = S_i[j]), the key under which sample extraction
     * produces ciphertexts (Algorithm 1, line 5).
     */
    LweKey extractLweKey() const;

  private:
    const TfheParams *params_ = nullptr;
    /** Immutable and shared by every copy. */
    std::shared_ptr<const std::vector<IntPolynomial>> polys_;
};

/** A GLWE ciphertext: k mask polynomials plus the body polynomial. */
class GlweCiphertext
{
  public:
    GlweCiphertext() = default;

    /** Zero ciphertext (trivial encryption of the zero polynomial). */
    GlweCiphertext(unsigned glwe_dimension, unsigned poly_degree);

    /** Trivial (noiseless) encryption of a plaintext polynomial. */
    static GlweCiphertext trivial(unsigned glwe_dimension,
                                  TorusPolynomial message);

    /** Encrypt a message polynomial with fresh gaussian noise. */
    static GlweCiphertext encrypt(const GlweKey &key,
                                  const TorusPolynomial &message,
                                  double stddev, Rng &rng);

    unsigned dimension() const
    {
        return static_cast<unsigned>(polys_.size()) - 1;
    }
    unsigned polyDegree() const { return polys_[0].degree(); }

    /** Component access: index 0..k-1 are masks, index k is the body. */
    TorusPolynomial &component(unsigned i) { return polys_[i]; }
    const TorusPolynomial &component(unsigned i) const
    {
        return polys_[i];
    }

    TorusPolynomial &body() { return polys_.back(); }
    const TorusPolynomial &body() const { return polys_.back(); }

    /** B - sum A_i S_i: the noisy plaintext polynomial. */
    TorusPolynomial phase(const GlweKey &key) const;

    void addAssign(const GlweCiphertext &other);
    void subAssign(const GlweCiphertext &other);

    /** Multiply every component by X^power (power in [0, 2N)); the
     *  homomorphic rotation used in blind rotation. */
    GlweCiphertext mulByXPower(unsigned power) const;

    /** In-place rotation of every component through one caller-provided
     *  scratch polynomial (allocation-free when warm). */
    void mulByXPowerInPlace(unsigned power, TorusPolynomial &scratch);

    /**
     * Extract the LWE ciphertext of the constant coefficient of the
     * message (Algorithm 1, line 5). Pure data re-grouping, no
     * arithmetic beyond negation.
     */
    LweCiphertext sampleExtract() const;

    /**
     * Extract the LWE ciphertext of coefficient `index` of the
     * message. The basis of multi-LUT bootstrapping: one blind
     * rotation, several extracted outputs at different coefficient
     * positions.
     */
    LweCiphertext sampleExtractAt(unsigned index) const;

    /** Extraction into an existing ciphertext; only resizes `out` when
     *  its dimension mismatches (allocation-free when warm). */
    void sampleExtractAtInto(unsigned index, LweCiphertext &out) const;

  private:
    std::vector<TorusPolynomial> polys_; //!< A_1..A_k, B
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_GLWE_H
