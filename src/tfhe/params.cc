#include "params.h"

#include <sstream>

#include "common/bits.h"
#include "common/logging.h"

namespace morphling::tfhe {

std::uint64_t
TfheParams::glweWords() const
{
    return std::uint64_t{polyDegree} * (glweDimension + 1);
}

std::uint64_t
TfheParams::extractedLweDimension() const
{
    return std::uint64_t{polyDegree} * glweDimension;
}

std::uint64_t
TfheParams::polysPerGgsw() const
{
    const std::uint64_t kp1 = glweDimension + 1;
    return kp1 * bskLevels * kp1;
}

std::uint64_t
TfheParams::bskBytes() const
{
    return std::uint64_t{lweDimension} * polysPerGgsw() * polyDegree * 4;
}

std::uint64_t
TfheParams::bskTransformBytes() const
{
    // N/2 complex values, 4-byte real + 4-byte imaginary parts
    // (Section V-A: 512-bit transform-domain datapath of eight 64-bit
    // complex elements) -> 4 * N bytes per polynomial, same as the
    // coefficient form.
    return bskBytes();
}

std::uint64_t
TfheParams::kskBytes() const
{
    return extractedLweDimension() * kskLevels * (lweDimension + 1) * 4;
}

std::uint64_t
TfheParams::accBytes() const
{
    return glweWords() * 4;
}

unsigned
TfheParams::log2TwoN() const
{
    return log2Floor(polyDegree) + 1;
}

std::string
TfheParams::summary() const
{
    std::ostringstream oss;
    oss << "set " << name << ": N=" << polyDegree << " n=" << lweDimension
        << " k=" << glweDimension << " l_b=" << bskLevels << " (base 2^"
        << bskBaseBits << ") l_k=" << kskLevels << " (base 2^"
        << kskBaseBits << ") lambda=" << securityBits;
    return oss.str();
}

const char *
TfheParams::firstProblem() const
{
    if (!isPowerOfTwo(polyDegree))
        return "N must be a power of two";
    if (polyDegree < 16)
        return "N too small";
    if (lweDimension == 0)
        return "n must be positive";
    if (glweDimension == 0)
        return "k must be positive";
    // The decoder refuses LWE dimensions above 2^24; the caps also
    // keep every 32-bit shape product (k+1)*l, kN*l_k exact.
    if (lweDimension > kMaxLweDimension)
        return "n exceeds 2^24";
    if (extractedLweDimension() > kMaxLweDimension)
        return "k*N exceeds 2^24";
    // 64-bit products: a wrapped one could pass a base of 2^31 bits.
    if (bskLevels == 0 || bskBaseBits == 0)
        return "bad BSK gadget";
    if (std::uint64_t{bskLevels} * bskBaseBits > 32)
        return "BSK gadget exceeds 32-bit torus";
    if (kskLevels == 0 || kskBaseBits == 0)
        return "bad KSK gadget";
    if (std::uint64_t{kskLevels} * kskBaseBits > 32)
        return "KSK gadget exceeds 32-bit torus";
    if (lweNoiseStd <= 0.0 || glweNoiseStd <= 0.0)
        return "noise stddevs must be positive";
    return nullptr;
}

void
TfheParams::validate() const
{
    fatal_if(firstProblem() != nullptr, firstProblem());
}

namespace {

TfheParams
make(const std::string &name, unsigned N, unsigned n, unsigned k,
     unsigned lb, unsigned bg_bits, unsigned lk, unsigned ks_base_bits,
     double lwe_std, double glwe_std, unsigned lambda)
{
    TfheParams p;
    p.name = name;
    p.polyDegree = N;
    p.lweDimension = n;
    p.glweDimension = k;
    p.bskLevels = lb;
    p.bskBaseBits = bg_bits;
    p.kskLevels = lk;
    p.kskBaseBits = ks_base_bits;
    p.lweNoiseStd = lwe_std;
    p.glweNoiseStd = glwe_std;
    p.securityBits = lambda;
    p.validate();
    return p;
}

} // namespace

// Decomposition bases follow the reference TFHE implementations for the
// matching dimensional parameters; sets B and C (k > 1) use bases scaled
// down so the double-precision FFT stays inside the noise budget. The
// single-level sets IV and A use beta = 2^16 rather than Concrete's
// 2^23: those published bases assume a 64-bit torus, and on the 32-bit
// torus this library (and the paper's hardware datapath) uses, a 2^23
// base amplifies the BSK noise past the decryption margin (the noise
// model in tfhe/noise.h quantifies this; test_noise.cc enforces it).
//
// Key switching uses few levels with a large base (the choice of the
// TFHE ASIC papers): the VPU's 128 MAC/cycle must key-switch one
// ciphertext in less time than the XPUs need to blind-rotate it, which
// bounds l_k * kN * (n+1) by the blind-rotation cycle count. The
// F128 set keeps Concrete's CPU-style l_k = 9 because Figure 1 is a CPU
// breakdown. Noise stddevs are functional placeholders tuned so every
// bootstrap round-trips with a wide margin; we do not re-derive
// security estimates (the lambda column is carried from the paper).

const TfheParams &
paramsSetI()
{
    static const TfheParams p = make("I", 1024, 500, 1, 2, 10, 2, 8,
                                     1.0e-6, 9.0e-10, 80);
    return p;
}

const TfheParams &
paramsSetII()
{
    static const TfheParams p = make("II", 1024, 630, 1, 3, 7, 2, 8,
                                     1.0e-6, 9.0e-10, 110);
    return p;
}

const TfheParams &
paramsSetIII()
{
    static const TfheParams p = make("III", 2048, 592, 1, 3, 8, 2, 8,
                                     1.0e-6, 5.0e-10, 128);
    return p;
}

const TfheParams &
paramsSetIV()
{
    static const TfheParams p = make("IV", 2048, 742, 1, 1, 16, 1, 12,
                                     1.0e-8, 2.0e-10, 128);
    return p;
}

const TfheParams &
paramsSetA()
{
    static const TfheParams p = make("A", 4096, 769, 1, 1, 16, 1, 12,
                                     1.0e-8, 1.2e-10, 128);
    return p;
}

const TfheParams &
paramsSetB()
{
    static const TfheParams p = make("B", 1024, 497, 2, 2, 8, 1, 12,
                                     1.0e-8, 9.0e-10, 128);
    return p;
}

const TfheParams &
paramsSetC()
{
    static const TfheParams p = make("C", 512, 487, 3, 3, 6, 2, 8,
                                     1.0e-6, 9.0e-10, 128);
    return p;
}

const TfheParams &
paramsFig1()
{
    static const TfheParams p = make("F128", 1024, 481, 2, 4, 6, 9, 3,
                                     1.0e-5, 9.0e-10, 128);
    return p;
}

const TfheParams &
paramsTest()
{
    // Small and fast; noise chosen so unit tests are deterministic-safe.
    static const TfheParams p = make("TEST", 512, 64, 1, 3, 7, 6, 2,
                                     1.0e-6, 1.0e-9, 0);
    return p;
}

const std::vector<TfheParams> &
allParamSets()
{
    static const std::vector<TfheParams> sets = {
        paramsSetI(), paramsSetII(), paramsSetIII(), paramsSetIV(),
        paramsSetA(), paramsSetB(), paramsSetC(), paramsFig1(),
    };
    return sets;
}

const TfheParams &
paramsByName(const std::string &name)
{
    for (const auto &p : allParamSets()) {
        if (p.name == name)
            return p;
    }
    if (name == "TEST")
        return paramsTest();
    fatal("unknown TFHE parameter set '", name, "'");
}

} // namespace morphling::tfhe
