#include "glwe.h"

#include "common/logging.h"
#include "tfhe/fft.h"

namespace morphling::tfhe {

GlweKey::GlweKey(const TfheParams &params,
                 std::vector<IntPolynomial> polys)
    : params_(&params)
{
    panic_if(polys.size() != params.glweDimension,
             "GLWE key needs k polynomials");
    polys_ = std::make_shared<const std::vector<IntPolynomial>>(
        std::move(polys));
}

GlweKey
GlweKey::generate(const TfheParams &params, Rng &rng)
{
    std::vector<IntPolynomial> polys;
    polys.reserve(params.glweDimension);
    for (unsigned i = 0; i < params.glweDimension; ++i) {
        IntPolynomial p(params.polyDegree);
        for (unsigned j = 0; j < params.polyDegree; ++j)
            p[j] = rng.nextBit() ? 1 : 0;
        polys.push_back(std::move(p));
    }
    return GlweKey(params, std::move(polys));
}

LweKey
GlweKey::extractLweKey() const
{
    std::vector<std::int32_t> bits;
    bits.reserve(static_cast<std::size_t>(dimension()) *
                 params().polyDegree);
    for (unsigned i = 0; i < dimension(); ++i) {
        for (unsigned j = 0; j < params().polyDegree; ++j)
            bits.push_back(poly(i)[j]);
    }
    return LweKey(params(), std::move(bits));
}

GlweCiphertext::GlweCiphertext(unsigned glwe_dimension,
                               unsigned poly_degree)
    : polys_(glwe_dimension + 1, TorusPolynomial(poly_degree))
{
}

GlweCiphertext
GlweCiphertext::trivial(unsigned glwe_dimension, TorusPolynomial message)
{
    GlweCiphertext ct(glwe_dimension, message.degree());
    ct.body() = std::move(message);
    return ct;
}

GlweCiphertext
GlweCiphertext::encrypt(const GlweKey &key, const TorusPolynomial &message,
                        double stddev, Rng &rng)
{
    const auto &params = key.params();
    const unsigned n = params.polyDegree;
    panic_if(message.degree() != n, "message degree mismatch");

    GlweCiphertext ct(key.dimension(), n);
    // Body starts as message + noise; the mask products are added via
    // the FFT path (exact for binary keys: products of 0/1 by torus).
    for (unsigned j = 0; j < n; ++j)
        ct.body()[j] = message[j] + gaussianTorus32(rng, stddev);

    const auto &fft = NegacyclicFft::forDegree(n);
    FourierPolynomial mask_f(n), key_f(n), acc_f(n);
    TorusPolynomial prod(n);
    for (unsigned i = 0; i < key.dimension(); ++i) {
        auto &mask = ct.component(i);
        for (unsigned j = 0; j < n; ++j)
            mask[j] = rng.nextU32();
        fft.forward(mask, mask_f);
        fft.forward(key.poly(i), key_f);
        acc_f.clear();
        acc_f.mulAddAssign(key_f, mask_f);
        fft.inverse(acc_f, prod);
        ct.body().addAssign(prod);
    }
    return ct;
}

TorusPolynomial
GlweCiphertext::phase(const GlweKey &key) const
{
    panic_if(key.dimension() != dimension(), "key dimension mismatch");
    const unsigned n = polyDegree();
    const auto &fft = NegacyclicFft::forDegree(n);

    TorusPolynomial result = body();
    FourierPolynomial mask_f(n), key_f(n), acc_f(n);
    TorusPolynomial prod(n);
    for (unsigned i = 0; i < dimension(); ++i) {
        fft.forward(component(i), mask_f);
        fft.forward(key.poly(i), key_f);
        acc_f.clear();
        acc_f.mulAddAssign(key_f, mask_f);
        fft.inverse(acc_f, prod);
        result.subAssign(prod);
    }
    return result;
}

void
GlweCiphertext::addAssign(const GlweCiphertext &other)
{
    panic_if(polys_.size() != other.polys_.size(),
             "dimension mismatch in GLWE add");
    for (std::size_t i = 0; i < polys_.size(); ++i)
        polys_[i].addAssign(other.polys_[i]);
}

void
GlweCiphertext::subAssign(const GlweCiphertext &other)
{
    panic_if(polys_.size() != other.polys_.size(),
             "dimension mismatch in GLWE sub");
    for (std::size_t i = 0; i < polys_.size(); ++i)
        polys_[i].subAssign(other.polys_[i]);
}

GlweCiphertext
GlweCiphertext::mulByXPower(unsigned power) const
{
    GlweCiphertext out(dimension(), polyDegree());
    for (std::size_t i = 0; i < polys_.size(); ++i)
        polys_[i].mulByXPowerInto(power, out.polys_[i]);
    return out;
}

void
GlweCiphertext::mulByXPowerInPlace(unsigned power,
                                   TorusPolynomial &scratch)
{
    for (auto &poly : polys_)
        poly.mulByXPowerInPlace(power, scratch);
}

LweCiphertext
GlweCiphertext::sampleExtract() const
{
    return sampleExtractAt(0);
}

LweCiphertext
GlweCiphertext::sampleExtractAt(unsigned index) const
{
    LweCiphertext out(dimension() * polyDegree());
    sampleExtractAtInto(index, out);
    return out;
}

void
GlweCiphertext::sampleExtractAtInto(unsigned index,
                                    LweCiphertext &out) const
{
    const unsigned n = polyDegree();
    const unsigned k = dimension();
    panic_if(index >= n, "extraction index out of range");

    if (out.raw().size() != static_cast<std::size_t>(k) * n + 1)
        out.raw().resize(static_cast<std::size_t>(k) * n + 1);
    // Coefficient `t` of A_i * S_i mod X^N + 1 is
    //   sum_{j <= t} A_i[t-j] S_i[j] - sum_{j > t} A_i[N+t-j] S_i[j],
    // so the mask aligned with key bit S_i[j] is A_i[t-j] for j <= t
    // and -A_i[N+t-j] above.
    for (unsigned i = 0; i < k; ++i) {
        const auto &mask = component(i);
        for (unsigned j = 0; j < n; ++j) {
            out.mask(i * n + j) =
                j <= index ? mask[index - j]
                           : (0 - mask[n + index - j]);
        }
    }
    out.body() = body()[index];
}

} // namespace morphling::tfhe
