#include "lwe.h"

#include "common/logging.h"

namespace morphling::tfhe {

LweKey::LweKey(const TfheParams &params, std::vector<std::int32_t> bits)
    : params_(&params)
{
    for (auto b : bits)
        panic_if(b != 0 && b != 1, "LWE key bits must be binary");
    bits_ = std::make_shared<const std::vector<std::int32_t>>(
        std::move(bits));
}

LweKey
LweKey::generate(const TfheParams &params, Rng &rng)
{
    std::vector<std::int32_t> bits(params.lweDimension);
    for (auto &b : bits)
        b = rng.nextBit() ? 1 : 0;
    return LweKey(params, std::move(bits));
}

LweCiphertext::LweCiphertext(unsigned dimension)
    : data_(dimension + 1, 0)
{
}

LweCiphertext
LweCiphertext::trivial(unsigned dimension, Torus32 mu)
{
    LweCiphertext ct(dimension);
    ct.body() = mu;
    return ct;
}

LweCiphertext
LweCiphertext::encrypt(const LweKey &key, Torus32 mu, double stddev,
                       Rng &rng)
{
    const unsigned n = key.dimension();
    LweCiphertext ct(n);
    Torus32 acc = mu + gaussianTorus32(rng, stddev);
    for (unsigned i = 0; i < n; ++i) {
        ct.mask(i) = rng.nextU32();
        if (key.bits()[i])
            acc += ct.mask(i);
    }
    ct.body() = acc;
    return ct;
}

Torus32
LweCiphertext::phase(const LweKey &key) const
{
    panic_if(key.dimension() != dimension(),
             "key dimension ", key.dimension(),
             " != ciphertext dimension ", dimension());
    Torus32 acc = body();
    for (unsigned i = 0; i < dimension(); ++i) {
        if (key.bits()[i])
            acc -= mask(i);
    }
    return acc;
}

void
LweCiphertext::addAssign(const LweCiphertext &other)
{
    panic_if(dimension() != other.dimension(),
             "dimension mismatch in LWE add");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
LweCiphertext::subAssign(const LweCiphertext &other)
{
    panic_if(dimension() != other.dimension(),
             "dimension mismatch in LWE sub");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
}

void
LweCiphertext::negate()
{
    for (auto &w : data_)
        w = 0 - w;
}

void
LweCiphertext::scaleAssign(std::int32_t factor)
{
    for (auto &w : data_)
        w = static_cast<Torus32>(
            static_cast<std::int64_t>(factor) *
            static_cast<std::int64_t>(static_cast<std::int32_t>(w)));
}

std::uint32_t
lweDecrypt(const LweKey &key, const LweCiphertext &ct, std::uint32_t space)
{
    return decodeMessage(ct.phase(key), space);
}

} // namespace morphling::tfhe
