/**
 * @file
 * LWE ciphertexts and keys (Section II-A).
 *
 * An LWE ciphertext of m in T_p under binary key s in {0,1}^n is
 * c = (a_1..a_n, b) with b = <a, s> + m + e. It is the scalar-message
 * workhorse of TFHE: application data enters and leaves bootstrapping as
 * LWE ciphertexts.
 */

#ifndef MORPHLING_TFHE_LWE_H
#define MORPHLING_TFHE_LWE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "tfhe/params.h"
#include "tfhe/torus.h"

namespace morphling::tfhe {

/**
 * A binary LWE secret key.
 *
 * The dimension is explicit (not always params.lweDimension: the key
 * extracted from a GLWE ciphertext has dimension kN).
 */
class LweKey
{
  public:
    LweKey() = default;
    LweKey(const TfheParams &params, std::vector<std::int32_t> bits);

    /** Sample a uniform binary key of params.lweDimension bits. */
    static LweKey generate(const TfheParams &params, Rng &rng);

    const TfheParams &params() const { return *params_; }
    unsigned dimension() const
    {
        return bits_ ? static_cast<unsigned>(bits_->size()) : 0;
    }
    const std::vector<std::int32_t> &bits() const { return *bits_; }

  private:
    const TfheParams *params_ = nullptr;
    /** Each 0 or 1; immutable and shared by every copy. */
    std::shared_ptr<const std::vector<std::int32_t>> bits_;
};

/**
 * An LWE ciphertext: n mask words followed by the body.
 *
 * Layout matches the paper's (n+1)-tuple; data()[n] is b.
 */
class LweCiphertext
{
  public:
    LweCiphertext() = default;

    /** Zero ciphertext of the given dimension (a trivial encryption of
     *  0 with no noise). */
    explicit LweCiphertext(unsigned dimension);

    /** Trivial (noiseless, keyless) encryption of mu: a = 0, b = mu. */
    static LweCiphertext trivial(unsigned dimension, Torus32 mu);

    /** Encrypt mu under key with gaussian noise of stddev. */
    static LweCiphertext encrypt(const LweKey &key, Torus32 mu,
                                 double stddev, Rng &rng);

    unsigned dimension() const
    {
        return static_cast<unsigned>(data_.size()) - 1;
    }

    Torus32 mask(unsigned i) const { return data_[i]; }
    Torus32 &mask(unsigned i) { return data_[i]; }
    Torus32 body() const { return data_.back(); }
    Torus32 &body() { return data_.back(); }

    const std::vector<Torus32> &raw() const { return data_; }
    std::vector<Torus32> &raw() { return data_; }

    /** b - <a, s>: the noisy plaintext. */
    Torus32 phase(const LweKey &key) const;

    /** Homomorphic addition: this += other. */
    void addAssign(const LweCiphertext &other);

    /** Homomorphic subtraction: this -= other. */
    void subAssign(const LweCiphertext &other);

    /** Homomorphic negation. */
    void negate();

    /** Add a plaintext constant to the encrypted value. */
    void addPlain(Torus32 mu) { data_.back() += mu; }

    /** Multiply the encrypted value by a small signed integer. */
    void scaleAssign(std::int32_t factor);

  private:
    explicit LweCiphertext(std::vector<Torus32> data)
        : data_(std::move(data))
    {
    }

    std::vector<Torus32> data_; //!< a_1..a_n, b
};

/** Decrypt to the nearest message of a p-value plaintext space. */
std::uint32_t lweDecrypt(const LweKey &key, const LweCiphertext &ct,
                         std::uint32_t space);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_LWE_H
