/**
 * @file
 * Evaluation-key material: the bootstrapping key (BSK) and the
 * key-switching key (KSK), plus a convenience KeySet bundling all
 * secret/evaluation keys of one party.
 *
 * Every key is immutable once generated or decoded, and its entries
 * live in one shared, const allocation: a copy of a key (or of a whole
 * KeySet or EvaluationKeys) shares that storage and allocates nothing,
 * so a process holds one resident copy of each key set however many
 * services, backends and registries refer to it.
 */

#ifndef MORPHLING_TFHE_KEYSET_H
#define MORPHLING_TFHE_KEYSET_H

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tfhe/ggsw.h"
#include "tfhe/glwe.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"

namespace morphling::tfhe {

/**
 * The bootstrapping key: one GGSW encryption of each LWE key bit,
 * stored pre-transformed in the Fourier domain (the hardware's
 * Private-A2 format; the paper assumes "BSK is already pre-computed in
 * the transform-domain", Section III).
 */
class BootstrapKey
{
  public:
    BootstrapKey() = default;

    /** Encrypt every bit of lwe_key under glwe_key. */
    static BootstrapKey generate(const LweKey &lwe_key,
                                 const GlweKey &glwe_key, Rng &rng);

    /** Rebuild from transformed entries (deserialization). */
    static BootstrapKey fromEntries(std::vector<FourierGgsw> entries);

    unsigned size() const
    {
        return entries_ ? static_cast<unsigned>(entries_->size()) : 0;
    }
    const FourierGgsw &entry(unsigned i) const { return (*entries_)[i]; }

  private:
    /** BSK_1 .. BSK_n, shared by every copy. */
    std::shared_ptr<const std::vector<FourierGgsw>> entries_;
};

/**
 * The key-switching key: kN * l_k LWE encryptions
 * KSK_(i,j) = LWE_s(s'_i * q / base^(j+1)) that homomorphically map a
 * ciphertext under the extracted key s' back to the original key s
 * (Algorithm 1, line 6).
 */
class KeySwitchKey
{
  public:
    KeySwitchKey() = default;

    /** Build the key from source (extracted, dim kN) to target
     *  (original, dim n). */
    static KeySwitchKey generate(const LweKey &source_key,
                                 const LweKey &target_key, Rng &rng);

    /** Rebuild from raw entries (deserialization). */
    static KeySwitchKey fromEntries(unsigned source_dim,
                                    unsigned target_dim, unsigned levels,
                                    unsigned base_bits,
                                    std::vector<LweCiphertext> entries);

    unsigned sourceDimension() const { return sourceDim_; }
    unsigned targetDimension() const { return targetDim_; }
    unsigned levels() const { return levels_; }
    unsigned baseBits() const { return baseBits_; }

    const LweCiphertext &at(unsigned i, unsigned j) const
    {
        return (*entries_)[static_cast<std::size_t>(i) * levels_ + j];
    }

    /**
     * Apply key switching: re-encrypt ct (under the source key) to the
     * target key. Pure scalar multiply-accumulate, the memory-bound
     * task the paper routes to the VPU.
     */
    LweCiphertext apply(const LweCiphertext &ct) const;

    /** Key switching into an existing ciphertext; allocation-free once
     *  `out` has the target dimension. The count-1 call of applyBatch. */
    void applyInto(const LweCiphertext &ct, LweCiphertext &out) const;

    /**
     * Key-switch `count` ciphertexts chunk-major: out[j] gets in[j]
     * switched, and each KSK row is applied to every ciphertext of the
     * call before the next row is read, so the key streams through the
     * cache once per call rather than once per ciphertext (the VPU's
     * KSK reuse across a chunk, DMA.LD_KSK once per chunk). Each out[j]
     * takes exactly applyInto(in[j])'s row updates, so the bytes match.
     * Allocation-free once every out[j] has the target dimension.
     */
    void applyBatch(const LweCiphertext *in, LweCiphertext *out,
                    unsigned count) const;

  private:
    /** KSK_(i,j) at i * levels_ + j, shared by every copy. */
    std::shared_ptr<const std::vector<LweCiphertext>> entries_;
    unsigned sourceDim_ = 0;
    unsigned targetDim_ = 0;
    unsigned levels_ = 0;
    unsigned baseBits_ = 0;
};

/**
 * All keys of one party: the LWE secret key (encryption key), the GLWE
 * secret key (bootstrapping accumulator key), and the two evaluation
 * keys. Generation order matches the TFHE key ceremony.
 */
struct KeySet
{
    TfheParams params;
    LweKey lweKey;        //!< s, dimension n
    GlweKey glweKey;      //!< S, k ring polynomials
    LweKey extractedKey;  //!< s', dimension kN (flattened S)
    BootstrapKey bsk;
    KeySwitchKey ksk;

    /** Generate a complete key set from one seed. */
    static KeySet generate(const TfheParams &params, Rng &rng);
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_KEYSET_H
