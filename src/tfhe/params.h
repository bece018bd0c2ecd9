/**
 * @file
 * TFHE parameter sets.
 *
 * The dimensional parameters (N, n, k, l_b, security level) of the named
 * sets I-IV and A-C follow Table III of the paper. The paper does not
 * list decomposition bases, key-switching levels (except Figure 1's
 * l_k = 9) or noise standard deviations; we fill those from the
 * reference TFHE implementations (TFHE-lib / Concrete) the paper builds
 * on, chosen so that (a) functional bootstrapping round-trips correctly
 * and (b) the double-precision FFT error stays inside the noise budget.
 * We do not re-derive security estimates; the lambda column is carried
 * over from the paper.
 */

#ifndef MORPHLING_TFHE_PARAMS_H
#define MORPHLING_TFHE_PARAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace morphling::tfhe {

/** Largest LWE dimension, n or the extracted kN, that a parameter set
 *  may have and the decoder accepts. */
constexpr std::uint32_t kMaxLweDimension = 1u << 24;

/**
 * One complete TFHE parameter set.
 *
 * All standard deviations are expressed as fractions of the torus.
 */
struct TfheParams
{
    std::string name;        //!< e.g. "I", "B", "F128"
    unsigned polyDegree;     //!< N, degree of the GLWE ring polynomials
    unsigned lweDimension;   //!< n, dimension of LWE ciphertexts
    unsigned glweDimension;  //!< k, dimension of GLWE ciphertexts
    unsigned bskLevels;      //!< l_b, levels of the bootstrapping key
    unsigned bskBaseBits;    //!< log2(beta) for the bootstrapping key
    unsigned kskLevels;      //!< l_k, levels of the key-switching key
    unsigned kskBaseBits;    //!< log2(base) for the key-switching key
    double lweNoiseStd;      //!< stddev of fresh LWE / KSK noise
    double glweNoiseStd;     //!< stddev of fresh GLWE / BSK noise
    unsigned securityBits;   //!< lambda as reported by the paper

    /** N * (k+1): torus words per GLWE ciphertext. */
    std::uint64_t glweWords() const;

    /** kN: dimension of the extracted LWE ciphertext (GLWE key,
     *  flattened). */
    std::uint64_t extractedLweDimension() const;

    /** Number of ring polynomials in one GGSW ciphertext:
     *  (k+1) * l_b rows of (k+1) polynomials. */
    std::uint64_t polysPerGgsw() const;

    /** Bytes of one bootstrapping key (n GGSW ciphertexts, 32-bit
     *  coefficients). */
    std::uint64_t bskBytes() const;

    /** Bytes of one bootstrapping key stored in the transform domain
     *  (N/2 complex values of 2*32 bits per polynomial), the format
     *  Morphling keeps in the Private-A2 buffer. */
    std::uint64_t bskTransformBytes() const;

    /** Bytes of one key-switching key: kN * l_k LWE ciphertexts of
     *  (n+1) 32-bit words. */
    std::uint64_t kskBytes() const;

    /** Bytes of one GLWE (ACC) ciphertext. */
    std::uint64_t accBytes() const;

    /** log2(2N), the modulus-switching target width. */
    unsigned log2TwoN() const;

    /** Human-readable one-line summary. */
    std::string summary() const;

    /** Sanity-check structural invariants (powers of two, level/base
     *  fits in 32 bits, ...); fatal() on violation. */
    void validate() const;

    /** First violated structural invariant, or nullptr when the set is
     *  well-formed — the non-fatal face of validate(), for code
     *  decoding untrusted parameter blobs (tryLoadEvaluationKeys). */
    const char *firstProblem() const;
};

/** Named parameter sets from Table III (I-IV with k = 1; A-C). */
const TfheParams &paramsSetI();
const TfheParams &paramsSetII();
const TfheParams &paramsSetIII();
const TfheParams &paramsSetIV();
const TfheParams &paramsSetA();
const TfheParams &paramsSetB();
const TfheParams &paramsSetC();

/** The 128-bit set used by Figure 1's breakdown:
 *  (N, n, k, l_b, l_k) = (1024, 481, 2, 4, 9). */
const TfheParams &paramsFig1();

/** Reduced-size set for fast unit tests (not in the paper). */
const TfheParams &paramsTest();

/** All named sets, in presentation order. */
const std::vector<TfheParams> &allParamSets();

/** Look up a named set; fatal() if the name is unknown. */
const TfheParams &paramsByName(const std::string &name);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_PARAMS_H
