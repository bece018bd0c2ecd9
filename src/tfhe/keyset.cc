#include "keyset.h"

#include "common/logging.h"
#include "tfhe/fft_dispatch.h"

namespace morphling::tfhe {

BootstrapKey
BootstrapKey::generate(const LweKey &lwe_key, const GlweKey &glwe_key,
                       Rng &rng)
{
    const auto &params = glwe_key.params();
    std::vector<FourierGgsw> entries;
    entries.reserve(lwe_key.dimension());
    for (unsigned i = 0; i < lwe_key.dimension(); ++i) {
        GgswCiphertext ggsw = GgswCiphertext::encrypt(
            glwe_key, lwe_key.bits()[i], params.glweNoiseStd, rng);
        entries.push_back(FourierGgsw::fromGgsw(ggsw));
    }
    return fromEntries(std::move(entries));
}

BootstrapKey
BootstrapKey::fromEntries(std::vector<FourierGgsw> entries)
{
    BootstrapKey out;
    out.entries_ = std::make_shared<const std::vector<FourierGgsw>>(
        std::move(entries));
    return out;
}

KeySwitchKey
KeySwitchKey::generate(const LweKey &source_key, const LweKey &target_key,
                       Rng &rng)
{
    const auto &params = target_key.params();
    const unsigned source_dim = source_key.dimension();
    std::vector<LweCiphertext> entries;
    entries.reserve(static_cast<std::size_t>(source_dim) *
                    params.kskLevels);
    for (unsigned i = 0; i < source_dim; ++i) {
        for (unsigned j = 0; j < params.kskLevels; ++j) {
            // KSK_(i,j) encrypts s'_i * q / base^(j+1).
            const Torus32 message = static_cast<Torus32>(
                static_cast<std::int64_t>(source_key.bits()[i])
                << (32 - (j + 1) * params.kskBaseBits));
            entries.push_back(LweCiphertext::encrypt(
                target_key, message, params.lweNoiseStd, rng));
        }
    }
    return fromEntries(source_dim, target_key.dimension(),
                       params.kskLevels, params.kskBaseBits,
                       std::move(entries));
}

KeySwitchKey
KeySwitchKey::fromEntries(unsigned source_dim, unsigned target_dim,
                          unsigned levels, unsigned base_bits,
                          std::vector<LweCiphertext> entries)
{
    KeySwitchKey out;
    out.sourceDim_ = source_dim;
    out.targetDim_ = target_dim;
    out.levels_ = levels;
    out.baseBits_ = base_bits;
    panic_if(entries.size() != static_cast<std::size_t>(source_dim) * levels,
             "KSK entry count mismatch");
    out.entries_ = std::make_shared<const std::vector<LweCiphertext>>(
        std::move(entries));
    return out;
}

LweCiphertext
KeySwitchKey::apply(const LweCiphertext &ct) const
{
    LweCiphertext out(targetDim_);
    applyInto(ct, out);
    return out;
}

void
KeySwitchKey::applyInto(const LweCiphertext &ct, LweCiphertext &out) const
{
    applyBatch(&ct, &out, 1);
}

void
KeySwitchKey::applyBatch(const LweCiphertext *in, LweCiphertext *out,
                         unsigned count) const
{
    // c'' = (0..0, b') - sum_{i,j} digit_{i,j} * KSK_(i,j), with each
    // extracted mask a'_i decomposed into l_k unsigned digits (with a
    // rounding offset on the discarded tail). The row updates run on
    // the dispatched SIMD tier, as VPU.KS runs on the VPU's lanes.
    for (unsigned t = 0; t < count; ++t) {
        panic_if(in[t].dimension() != sourceDim_,
                 "key switch expects dimension ", sourceDim_, ", got ",
                 in[t].dimension());
        out[t].raw().assign(static_cast<std::size_t>(targetDim_) + 1, 0);
        out[t].body() = in[t].body();
    }
    const std::uint32_t mask = (1u << baseBits_) - 1;
    const unsigned tail_bits = 32 - levels_ * baseBits_;
    const Torus32 round_offset =
        tail_bits > 0 ? (Torus32{1} << (tail_bits - 1)) : 0;
    const detail::BatchKernels &kernels = detail::activeBatchKernels();

    // Mask-major: KSK_(i,.) serves every ciphertext while it is in
    // cache. Each ciphertext still takes its rows in (i, j) order.
    for (unsigned i = 0; i < sourceDim_; ++i) {
        for (unsigned t = 0; t < count; ++t) {
            const Torus32 a = in[t].mask(i) + round_offset;
            for (unsigned j = 0; j < levels_; ++j) {
                const std::uint32_t digit =
                    (a >> (32 - (j + 1) * baseBits_)) & mask;
                if (digit == 0)
                    continue;
                kernels.subScaledRow(targetDim_ + 1, digit,
                                     at(i, j).raw().data(),
                                     out[t].raw().data());
            }
        }
    }
}

KeySet
KeySet::generate(const TfheParams &params, Rng &rng)
{
    KeySet ks;
    ks.params = params;
    ks.lweKey = LweKey::generate(params, rng);
    ks.glweKey = GlweKey::generate(params, rng);
    ks.extractedKey = ks.glweKey.extractLweKey();
    ks.bsk = BootstrapKey::generate(ks.lweKey, ks.glweKey, rng);
    ks.ksk = KeySwitchKey::generate(ks.extractedKey, ks.lweKey, rng);
    return ks;
}

} // namespace morphling::tfhe
