/**
 * @file
 * Tests for the zero-allocation bootstrap hot path: workspace vs.
 * legacy entry-point equivalence (exact integer equality), the
 * negacyclic FFT engine against the radix-2 reference, the planned gadget
 * decomposition and in-place rotations against their scalar originals,
 * every SIMD tier's batched transforms, rounding store and integer
 * kernels against the scalar references, the batched blind rotation
 * (lane-resident tiles and row-lane leftovers) against the
 * per-ciphertext CMux loop on every tier,
 * and an operator-new hook asserting that a warmed-up bootstrap (and
 * batched rotation) through the workspace performs zero heap
 * allocations on every tier, and that copying a key set shares its
 * storage instead of allocating.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/fft.h"
#include "tfhe/fft_dispatch.h"
#include "tfhe/ggsw.h"
#include "tfhe/keyset.h"
#include "tfhe/serialize.h"
#include "tfhe/workspace.h"

// ---------------------------------------------------------------------
// Allocation-count hook: every path through global operator new bumps
// the counter while tracking is enabled. Deletes are left uncounted (a
// zero-allocation region is trivially a zero-deallocation region for
// warm buffers, and freeing is harmless anyway). The aligned overloads
// must honor the requested alignment: the SIMD buffers (AlignedVector)
// allocate through them and assert 64-byte alignment below.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_track{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    if (g_track.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (g_track.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(align);
    if (a < sizeof(void *))
        a = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, a, size ? size : a) != 0)
        throw std::bad_alloc();
    return p;
}

// Out of line so that GCC cannot pair the std::free with an inlined
// operator new and flag it -Wmismatched-new-delete (it did in the TSan
// build).
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void
operator delete(void *p) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

namespace morphling::tfhe {
namespace {

/** Force a tier for one scope, then drop back to the env/auto choice. */
struct DispatchGuard
{
    explicit DispatchGuard(FftDispatchTier t) { forceFftDispatchTier(t); }
    ~DispatchGuard() { resetFftDispatchTier(); }
};

TorusPolynomial
randomTorusPoly(unsigned n, Rng &rng)
{
    TorusPolynomial p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = rng.nextU32();
    return p;
}

IntPolynomial
randomIntPoly(unsigned n, Rng &rng)
{
    IntPolynomial p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = static_cast<std::int32_t>(rng.nextU32());
    return p;
}

/** Forward transforms of `polys` through one batched engine call. */
std::vector<FourierPolynomial>
forwardBatch(const std::vector<IntPolynomial> &polys)
{
    const unsigned n = polys[0].degree();
    std::vector<FourierPolynomial> spectra(polys.size(),
                                           FourierPolynomial(n));
    std::vector<const std::int32_t *> in;
    std::vector<FourierPolynomial *> out;
    for (std::size_t i = 0; i < polys.size(); ++i) {
        in.push_back(polys[i].data());
        out.push_back(&spectra[i]);
    }
    NegacyclicFft::forDegree(n).forward(in.data(), out.data(),
                                        static_cast<unsigned>(in.size()));
    return spectra;
}

/** Inverse transforms of `spectra` through one batched engine call,
 *  added into `out` (resized to zero polynomials when empty). */
void
inverseAddBatch(const std::vector<FourierPolynomial> &spectra,
                std::vector<TorusPolynomial> &out)
{
    const unsigned n = spectra[0].ringDegree();
    if (out.empty())
        out.assign(spectra.size(), TorusPolynomial(n));
    std::vector<const FourierPolynomial *> in;
    std::vector<TorusPolynomial *> outP;
    for (std::size_t i = 0; i < spectra.size(); ++i) {
        in.push_back(&spectra[i]);
        outP.push_back(&out[i]);
    }
    NegacyclicFft::forDegree(n).inverseAdd(
        in.data(), outP.data(), static_cast<unsigned>(in.size()));
}

// ---------------------------------------------------------------------
// The negacyclic engine vs. the radix-2 ComplexFft reference.
//
// The engine's radix-4 stages leave the spectrum in digit-reversed
// order. The permutation is found by matching, not by knowing the
// stages: each bin of a seeded random polynomial's engine spectrum is
// paired with the nearest natural-order bin of the reference (fold +
// twist applied by hand, then ComplexFft), the pairing is asserted to
// be a bijection, and fresh seeded inputs are then compared through it
// on every tier, for count 1 (the W = 1 kernel) and for a full group of
// kMaxFftLanes (each tier's own kernel). The parameter is the complex
// size N/2; 8..256 covers stage counts with and without the radix-2
// tail, and 2 (N = 4) the tail with no radix-4 stage at all.
// ---------------------------------------------------------------------

/** Reference spectrum of an integer polynomial, in natural bin order:
 *  the fold + twist by hand, then ComplexFft of size N/2. */
void
referenceSpectrum(const IntPolynomial &a, std::vector<double> &re,
                  std::vector<double> &im)
{
    const unsigned n = a.degree(), half = n / 2;
    re.resize(half);
    im.resize(half);
    for (unsigned j = 0; j < half; ++j) {
        const double angle = M_PI * static_cast<double>(j) /
                             static_cast<double>(n);
        const double lo = a[j], hi = a[j + half];
        re[j] = lo * std::cos(angle) - hi * std::sin(angle);
        im[j] = lo * std::sin(angle) + hi * std::cos(angle);
    }
    ComplexFft(half).forward(re.data(), im.data());
}

/** Round-off allowance for a bin of an N/2-point transform of full-range
 *  int32 coefficients (bins reach 2^31 * N/2). */
double
binTolerance(unsigned half)
{
    return 1e-12 * 0x1p31 * half;
}

/** perm[k] = the engine bin holding reference bin k. */
std::vector<unsigned>
derivePermutation(unsigned n)
{
    const unsigned half = n / 2;
    Rng rng(0x9E37 + n);
    const auto poly = randomIntPoly(n, rng);
    std::vector<double> re, im;
    referenceSpectrum(poly, re, im);
    FourierPolynomial spectrum(n);
    NegacyclicFft::forDegree(n).forward(poly, spectrum);

    std::vector<unsigned> perm(half, half);
    std::vector<bool> hit(half, false);
    for (unsigned k = 0; k < half; ++k) {
        double best = INFINITY;
        for (unsigned t = 0; t < half; ++t) {
            const double d = std::hypot(spectrum.re(t) - re[k],
                                        spectrum.im(t) - im[k]);
            if (d < best) {
                best = d;
                perm[k] = t;
            }
        }
        EXPECT_LT(best, binTolerance(half)) << "no engine bin for " << k;
        EXPECT_FALSE(hit[perm[k]]) << "permutation not injective at " << k;
        hit[perm[k]] = true;
    }
    return perm;
}

class Radix4Sizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Radix4Sizes, ForwardMatchesRadix2UpToPermutation)
{
    const unsigned half = GetParam(), n = 2 * half;
    const auto perm = derivePermutation(n);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(100 + half + static_cast<unsigned>(tier));
        for (const unsigned count : {1u, detail::kMaxFftLanes}) {
            std::vector<IntPolynomial> polys;
            for (unsigned i = 0; i < count; ++i)
                polys.push_back(randomIntPoly(n, rng));
            const auto spectra = forwardBatch(polys);
            std::vector<double> re, im;
            for (unsigned i = 0; i < count; ++i) {
                referenceSpectrum(polys[i], re, im);
                for (unsigned k = 0; k < half; ++k) {
                    EXPECT_NEAR(spectra[i].re(perm[k]), re[k],
                                binTolerance(half))
                        << fftDispatchTierName(tier) << " count " << count
                        << " poly " << i << " bin " << k;
                    EXPECT_NEAR(spectra[i].im(perm[k]), im[k],
                                binTolerance(half))
                        << fftDispatchTierName(tier) << " count " << count
                        << " poly " << i << " bin " << k;
                }
            }
        }
    }
}

TEST_P(Radix4Sizes, InverseMatchesRadix2UpToPermutation)
{
    // Random spectra in reference order: the engine reads them through
    // the permutation, the reference runs ComplexFft's unscaled inverse,
    // scales by 2/N, untwists and rounds by hand. The two round-offs
    // differ by far less than one torus unit, so the results agree
    // within one unit (a near-tie may round either way).
    const unsigned half = GetParam(), n = 2 * half;
    const auto perm = derivePermutation(n);
    const ComplexFft reference(half);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(200 + half + static_cast<unsigned>(tier));
        for (const unsigned count : {1u, detail::kMaxFftLanes}) {
            std::vector<FourierPolynomial> spectra(count,
                                                   FourierPolynomial(n));
            std::vector<TorusPolynomial> want(count, TorusPolynomial(n));
            for (unsigned i = 0; i < count; ++i) {
                std::vector<double> re(half), im(half);
                for (unsigned k = 0; k < half; ++k) {
                    re[k] = (rng.nextDouble() * 2.0 - 1.0) * 0x1p30;
                    im[k] = (rng.nextDouble() * 2.0 - 1.0) * 0x1p30;
                    spectra[i].re(perm[k]) = re[k];
                    spectra[i].im(perm[k]) = im[k];
                }
                reference.inverse(re.data(), im.data());
                for (unsigned j = 0; j < half; ++j) {
                    const double angle = M_PI * static_cast<double>(j) /
                                         static_cast<double>(n);
                    const double zr = re[j] / half, zi = im[j] / half;
                    want[i][j] = detail::roundToTorus(
                        zr * std::cos(angle) + zi * std::sin(angle));
                    want[i][j + half] = detail::roundToTorus(
                        zi * std::cos(angle) - zr * std::sin(angle));
                }
            }
            std::vector<TorusPolynomial> got;
            inverseAddBatch(spectra, got);
            for (unsigned i = 0; i < count; ++i)
                for (unsigned j = 0; j < n; ++j)
                    EXPECT_LE(std::abs(static_cast<std::int32_t>(
                                  got[i][j] - want[i][j])),
                              1)
                        << fftDispatchTierName(tier) << " count " << count
                        << " poly " << i << " index " << j;
        }
    }
}

TEST_P(Radix4Sizes, RoundtripIsScaledIdentity)
{
    // The inverse applies the 1/(N/2) scale of the unscaled complex
    // round trip, so forward then inverse is the identity: its
    // round-off is far below the rounding step, so recovery is exact.
    const unsigned half = GetParam(), n = 2 * half;
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(300 + half + static_cast<unsigned>(tier));
        for (const unsigned count : {1u, detail::kMaxFftLanes}) {
            std::vector<IntPolynomial> polys;
            for (unsigned i = 0; i < count; ++i)
                polys.push_back(randomIntPoly(n, rng));
            std::vector<TorusPolynomial> back;
            inverseAddBatch(forwardBatch(polys), back);
            for (unsigned i = 0; i < count; ++i)
                for (unsigned j = 0; j < n; ++j)
                    ASSERT_EQ(static_cast<std::int32_t>(back[i][j]),
                              polys[i][j])
                        << fftDispatchTierName(tier) << " count " << count
                        << " poly " << i << " index " << j;
        }
    }
}

TEST_P(Radix4Sizes, ImpulseTransformsToFlatSpectrum)
{
    // The constant polynomial 1 folds and twists to an impulse at
    // index 0, whose transform is 1 in every bin.
    const unsigned half = GetParam(), n = 2 * half;
    IntPolynomial one(n);
    one[0] = 1;
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        for (const unsigned count : {1u, detail::kMaxFftLanes}) {
            const auto spectra =
                forwardBatch(std::vector<IntPolynomial>(count, one));
            for (unsigned i = 0; i < count; ++i) {
                for (unsigned t = 0; t < half; ++t) {
                    EXPECT_NEAR(spectra[i].re(t), 1.0, 1e-12)
                        << fftDispatchTierName(tier) << " bin " << t;
                    EXPECT_NEAR(spectra[i].im(t), 0.0, 1e-12)
                        << fftDispatchTierName(tier) << " bin " << t;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Radix4Sizes,
                         ::testing::Values(2u, 8u, 16u, 64u, 128u, 256u));

TEST(Radix4, SchoolbookVsFourierExternalProduct)
{
    // End-to-end cross-check through the negacyclic wrapper: the
    // Fourier external product (radix-4 underneath) against the exact
    // O(N^2) schoolbook product.
    const auto &params = paramsTest();
    Rng rng(0xAB12);
    const auto key = GlweKey::generate(params, rng);
    const auto ggsw =
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng);
    const auto fggsw = FourierGgsw::fromGgsw(ggsw);

    GlweCiphertext input(params.glweDimension, params.polyDegree);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c) = randomTorusPoly(params.polyDegree, rng);

    const auto exact = externalProductSchoolbook(ggsw, input);
    const auto viaFft = externalProductFourier(fggsw, input);
    for (unsigned c = 0; c <= params.glweDimension; ++c) {
        for (unsigned i = 0; i < params.polyDegree; ++i) {
            EXPECT_LT(torusDistance(viaFft.component(c)[i],
                                    exact.component(c)[i]),
                      1.0 / (1 << 20))
                << "component " << c << " coeff " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Workspace vs. legacy equivalence (exact integer equality).
// ---------------------------------------------------------------------

TEST(Workspace, PlannedDecompositionMatchesScalar)
{
    Rng rng(0xD1517);
    for (const unsigned base_bits : {2u, 7u, 10u, 16u}) {
        const unsigned levels = 32 / base_bits >= 3 ? 3 : 1;
        const auto plan = makeGadgetPlan(base_bits, levels);
        const auto poly = randomTorusPoly(256, rng);

        std::vector<IntPolynomial> planned;
        gadgetDecomposePlanned(poly, plan, planned);

        std::vector<std::int32_t> digits(levels);
        for (unsigned c = 0; c < poly.degree(); ++c) {
            gadgetDecomposeScalar(poly[c], base_bits, levels,
                                  digits.data());
            for (unsigned j = 0; j < levels; ++j)
                EXPECT_EQ(planned[j][c], digits[j])
                    << "base 2^" << base_bits << " level " << j
                    << " coeff " << c;
        }
    }
}

TEST(Workspace, InPlaceRotationsMatchAllocatingOnes)
{
    Rng rng(0xB0B);
    const unsigned n = 128;
    const auto poly = randomTorusPoly(n, rng);
    TorusPolynomial out(n), scratch(n);
    for (unsigned power : {0u, 1u, 127u, 128u, 129u, 255u}) {
        poly.mulByXPowerInto(power, out);
        EXPECT_EQ(out, poly.mulByXPower(power)) << "power " << power;

        TorusPolynomial in_place = poly;
        in_place.mulByXPowerInPlace(power, scratch);
        EXPECT_EQ(in_place, out) << "power " << power;

        poly.rotateDiffInto(power, out);
        EXPECT_EQ(out, poly.rotateDiff(power)) << "power " << power;
    }
}

TEST(Workspace, ExternalProductAndCmuxMatchLegacy)
{
    const auto &params = paramsTest();
    Rng rng(0xE4E4);
    const auto key = GlweKey::generate(params, rng);
    const auto fggsw = FourierGgsw::fromGgsw(
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng));

    GlweCiphertext input(params.glweDimension, params.polyDegree);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c) = randomTorusPoly(params.polyDegree, rng);

    BootstrapWorkspace ws;
    GlweCiphertext result;
    externalProductFourier(fggsw, input, result, ws);
    const auto legacy = externalProductFourier(fggsw, input);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        EXPECT_EQ(result.component(c), legacy.component(c));

    GlweCiphertext acc = input;
    cmuxRotateInPlace(fggsw, acc, 37, ws);
    const auto legacy_cmux = cmuxRotate(fggsw, input, 37);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        EXPECT_EQ(acc.component(c), legacy_cmux.component(c));
}

TEST(Workspace, BootstrapMatchesLegacyAcrossParameterSets)
{
    // One shared workspace reshaped across three geometries (k=1 N=512,
    // k=3 N=512, k=2 N=1024): every explicit-workspace bootstrap must
    // equal the legacy entry point bit for bit.
    BootstrapWorkspace ws;
    for (const char *name : {"TEST", "C", "B"}) {
        const auto &params = paramsByName(name);
        Rng rng(0x5EED);
        const auto keys = KeySet::generate(params, rng);
        const auto lut = makePaddedLut(4, [](std::uint32_t m) {
            return 3 - m;
        });

        for (std::uint32_t msg = 0; msg < 4; ++msg) {
            const auto ct = encryptPadded(keys, msg, 4, rng);
            const auto legacy = programmableBootstrap(keys, ct, lut);

            TorusPolynomial tp;
            buildTestPolynomialInto(params.polyDegree, lut, tp);
            LweCiphertext out;
            bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);

            EXPECT_EQ(out.raw(), legacy.raw())
                << "set " << name << " message " << msg;
            EXPECT_EQ(decryptPadded(keys, out, 4), 3 - msg)
                << "set " << name << " message " << msg;
        }
    }
}

// ---------------------------------------------------------------------
// The tentpole guarantee: a warmed-up bootstrap allocates nothing.
// ---------------------------------------------------------------------

TEST(AllocationGuard, WarmedUpBootstrapPerformsZeroAllocations)
{
    const auto &params = paramsTest();
    Rng rng(0xA110C);
    const auto keys = KeySet::generate(params, rng);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto tp = buildTestPolynomial(params.polyDegree, lut);
    const auto ct = encryptPadded(keys, 2, 4, rng);

    // Every tier: the forced-scalar one takes the single-polynomial
    // inverse fallback for every transform.
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        BootstrapWorkspace ws;
        LweCiphertext out;
        // Two warm-up rounds: the first shapes the workspace and `out`,
        // the second confirms steady state before counting.
        bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
        bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);

        g_allocs.store(0);
        g_track.store(true);
        bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
        g_track.store(false);

        EXPECT_EQ(g_allocs.load(), 0u)
            << fftDispatchTierName(tier)
            << ": warmed-up workspace bootstrap must not touch the heap";
        EXPECT_EQ(decryptPadded(keys, out, 4), 2u)
            << fftDispatchTierName(tier);
    }
}

// Keys are immutable and copies share their storage: copying a key set
// or its evaluation half takes reference counts, not heap blocks, and
// every copy reads the very same BSK spectra and KSK rows.
TEST(AllocationGuard, KeyCopiesShareStorageAndAllocateNothing)
{
    Rng rng(0x5EA7ED);
    const auto keys = KeySet::generate(paramsTest(), rng);
    const auto eval = EvaluationKeys::fromKeySet(keys);

    const auto expectShared = [&](const BootstrapKey &bsk,
                                  const KeySwitchKey &ksk,
                                  const char *what) {
        EXPECT_EQ(bsk.entry(0).at(0, 0).reData(),
                  keys.bsk.entry(0).at(0, 0).reData())
            << what;
        EXPECT_EQ(ksk.at(0, 0).raw().data(), keys.ksk.at(0, 0).raw().data())
            << what;
    };

    g_allocs.store(0);
    g_track.store(true);
    const KeySet keys_copy = keys;
    g_track.store(false);
    EXPECT_EQ(g_allocs.load(), 0u) << "KeySet copy";
    expectShared(keys_copy.bsk, keys_copy.ksk, "KeySet copy");
    EXPECT_EQ(&keys_copy.lweKey.bits(), &keys.lweKey.bits());

    g_allocs.store(0);
    g_track.store(true);
    const EvaluationKeys eval_copy = eval;
    g_track.store(false);
    EXPECT_EQ(g_allocs.load(), 0u) << "EvaluationKeys copy";
    expectShared(eval_copy.bsk, eval_copy.ksk, "EvaluationKeys copy");

    g_allocs.store(0);
    g_track.store(true);
    const auto extracted = EvaluationKeys::fromKeySet(keys);
    g_track.store(false);
    EXPECT_EQ(g_allocs.load(), 0u) << "fromKeySet";
    expectShared(extracted.bsk, extracted.ksk, "fromKeySet");

    const KeyFingerprint fp = fingerprintEvaluationKeys(eval);
    EXPECT_EQ(fingerprintEvaluationKeys(eval_copy), fp);
    EXPECT_EQ(fingerprintEvaluationKeys(extracted), fp);
    EXPECT_EQ(fingerprintEvaluationKeys(EvaluationKeys::fromKeySet(keys_copy)),
              fp);
}

TEST(AllocationGuard, HookCountsAllocations)
{
    // Sanity-check the hook itself so a broken counter cannot silently
    // pass the zero-allocation test.
    g_allocs.store(0);
    g_track.store(true);
    auto *v = new std::vector<double>(1024);
    g_track.store(false);
    EXPECT_GE(g_allocs.load(), 1u);
    delete v;
}

// ---------------------------------------------------------------------
// SIMD buffer alignment: every structure-of-arrays buffer the batched
// kernels stream must be 64-byte aligned (common/aligned.h contract).
// ---------------------------------------------------------------------

static_assert(kSimdAlignment == 64, "SIMD buffers are cache-line sized");
static_assert((kSimdAlignment & (kSimdAlignment - 1)) == 0,
              "SIMD alignment must be a power of two");
static_assert(kSimdAlignment >= tfhe::detail::kMaxFftLanes * sizeof(double),
              "widest kernel tier must fit one aligned line");

TEST(Alignment, AlignedVectorDataIsAligned)
{
    // Odd sizes included: alignment must hold regardless of length.
    for (const std::size_t size : {1u, 7u, 64u, 513u, 4096u}) {
        AlignedVector<double> v(size);
        EXPECT_TRUE(isSimdAligned(v.data())) << "size " << size;
    }
}

TEST(Alignment, FourierPolynomialStorageIsAligned)
{
    for (const unsigned n : {8u, 64u, 1024u, 4096u}) {
        FourierPolynomial fp(n);
        EXPECT_TRUE(isSimdAligned(fp.reData())) << "N " << n;
        EXPECT_TRUE(isSimdAligned(fp.imData())) << "N " << n;
    }
}

TEST(Alignment, WorkspaceScratchBuffersAreAligned)
{
    BootstrapWorkspace ws;
    ws.ensure(/*glwe_dim=*/2, /*poly_degree=*/512, /*levels=*/3,
              /*base_bits=*/6, /*depth=*/1,
              /*lanes=*/tfhe::detail::kMaxFftLanes,
              /*resident=*/tfhe::detail::kMaxFftLanes);
    for (const auto &fp : ws.digitsF) {
        EXPECT_TRUE(isSimdAligned(fp.reData()));
        EXPECT_TRUE(isSimdAligned(fp.imData()));
    }
    for (const auto &fp : ws.accF) {
        EXPECT_TRUE(isSimdAligned(fp.reData()));
        EXPECT_TRUE(isSimdAligned(fp.imData()));
    }
    // The lane tile's interleaved buffers; each plane is its real
    // block, then its imaginary block.
    ASSERT_FALSE(ws.laneAcc.empty());
    EXPECT_TRUE(isSimdAligned(ws.laneAcc.data()));
    ASSERT_FALSE(ws.laneDigits.empty());
    EXPECT_TRUE(isSimdAligned(ws.laneDigits.data()));
    for (const auto *planes : {&ws.digitPlanes, &ws.accPlanes}) {
        ASSERT_FALSE(planes->empty());
        EXPECT_TRUE(isSimdAligned(planes->data()));
        EXPECT_TRUE(isSimdAligned(planes->data() + planes->size() / 2));
    }
}

// ---------------------------------------------------------------------
// Runtime dispatch: tier names, the supported set and the force hook.
// ---------------------------------------------------------------------

TEST(FftDispatch, TierNames)
{
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kScalar), "scalar");
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kAvx2), "avx2");
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kAvx512), "avx512");
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kNeon), "neon");
}

TEST(FftDispatch, ScalarAlwaysSupportedAndListedFirst)
{
    EXPECT_TRUE(fftDispatchTierSupported(FftDispatchTier::kScalar));
    const auto tiers = supportedFftDispatchTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), FftDispatchTier::kScalar);
    for (const auto t : tiers)
        EXPECT_TRUE(fftDispatchTierSupported(t));
}

TEST(FftDispatch, ForceSelectsEachSupportedTier)
{
    for (const auto t : supportedFftDispatchTiers()) {
        DispatchGuard guard(t);
        EXPECT_EQ(activeFftDispatchTier(), t)
            << fftDispatchTierName(t);
    }
}

// ---------------------------------------------------------------------
// The batched entry points: for every supported tier, batched
// transforms must be bit-identical to the count-1 call (the W = 1
// kernel), match the radix-2 reference up to the engine permutation,
// round-trip, and agree with the schoolbook negacyclic product.
// ---------------------------------------------------------------------

TEST(BatchFftTiers, ForwardBitIdenticalToScalarEngine)
{
    // Ring degrees with and without the radix-2 tail, small enough to
    // force the W = 1 kernel under wide tiers, and large enough that
    // the later stages run on each quarter of a plane in turn; batch
    // counts around the lane-width boundaries.
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0xF0F0 + static_cast<unsigned>(tier));
        for (const unsigned n :
             {8u, 16u, 32u, 128u, 512u, 1024u, 2048u, 4096u}) {
            const auto &fft = NegacyclicFft::forDegree(n);
            for (const unsigned count : {1u, 2u, 5u, 8u, 9u, 17u}) {
                std::vector<IntPolynomial> polys;
                for (unsigned i = 0; i < count; ++i)
                    polys.push_back(randomIntPoly(n, rng));
                const auto batched = forwardBatch(polys);

                FourierPolynomial ref(n);
                for (unsigned i = 0; i < count; ++i) {
                    fft.forward(polys[i], ref);
                    for (unsigned j = 0; j < ref.size(); ++j) {
                        ASSERT_EQ(batched[i].re(j), ref.re(j))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i
                            << " bin " << j;
                        ASSERT_EQ(batched[i].im(j), ref.im(j))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i
                            << " bin " << j;
                    }
                }
            }
        }
    }
}

TEST(BatchFftTiers, InverseBitIdenticalToScalarEngine)
{
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x1D1D + static_cast<unsigned>(tier));
        for (const unsigned n : {8u, 32u, 256u, 1024u, 2048u, 4096u}) {
            const auto &fft = NegacyclicFft::forDegree(n);
            for (const unsigned count : {1u, 4u, 8u, 11u}) {
                // Realistic spectra: forward transforms of random torus
                // polynomials, scaled up as an accumulated dot product
                // would be.
                std::vector<FourierPolynomial> spectra(
                    count, FourierPolynomial(n));
                for (unsigned i = 0; i < count; ++i) {
                    const auto tp = randomTorusPoly(n, rng);
                    fft.forward(tp, spectra[i]);
                }

                std::vector<TorusPolynomial> ref(count,
                                                 TorusPolynomial(n));
                for (unsigned i = 0; i < count; ++i)
                    fft.inverse(spectra[i], ref[i]);

                std::vector<TorusPolynomial> got;
                inverseAddBatch(spectra, got);
                for (unsigned i = 0; i < count; ++i)
                    EXPECT_EQ(got[i], ref[i])
                        << fftDispatchTierName(tier) << " N " << n
                        << " count " << count << " poly " << i;
            }
        }
    }
}

TEST(BatchFftTiers, InverseRoundsLikeRoundToTorus)
{
    // Spectra whose only nonzero bin is DC, with real part v*N/2: the
    // inverse is then v times the untwist factor e^{-i*pi*j/N} at every
    // coefficient, and exactly v at coefficient 0. That puts chosen
    // values through each tier's rounding store: ties of both parities,
    // near-ties just inside them, the 2^31/2^32 wrap points, both sides
    // of the 2^51 bound of the vector tiers' one-add rounding, the 2^53
    // precision edge, the 2^62 guard of roundToTorus, and random values
    // of every magnitude up to 2^91. Coefficient 0 must be exactly
    // roundToTorus(v), the rest must match the count-1 call, and both
    // must be added into outputs that start nonzero.
    std::vector<double> values = {
        0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1048576.5,
        -1048577.5, 1.5 - 0x1p-30, -(1.5 - 0x1p-30), 0.5 - 0x1p-30,
        -(0.5 - 0x1p-30), 0x1p31 + 0.5, 0x1p31 - 0.5, 0x1p32, -0x1p32,
        4294967295.5, -4294967295.5, 0x1p51, -0x1p51, 0x1p51 - 0.5,
        -(0x1p51 - 0.5), 0x1p51 + 1, -(0x1p51 + 1), 0x1p51 - 1.5,
        -(0x1p51 - 1.5), 0x1p50 + 0.5, -(0x1p50 + 0.5), 0x1p52 + 1,
        -(0x1p52 + 1),
        0x1p53 + 2, 0x1p62, -0x1p62, 0x1p62 - 512, 0x1p63, -0x1p63,
        3 * 0x1p70, -5 * 0x1p80};
    Rng vrng(0x0DD5);
    for (unsigned i = 0; i < 4000; ++i) {
        const double v = std::ldexp(1.0 + vrng.nextDouble(),
                                    static_cast<int>(vrng.nextU32() % 91));
        values.push_back(vrng.nextBit() ? -v : v);
    }

    // Groups of 9 fill the 8- or 4-lane kernels and leave one spectrum
    // for the W = 1 kernel.
    const unsigned n = 64, group = 9;
    const auto &fft = NegacyclicFft::forDegree(n);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x4D0 + static_cast<unsigned>(tier));
        for (std::size_t b = 0; b < values.size(); b += group) {
            const auto count = static_cast<unsigned>(
                std::min<std::size_t>(group, values.size() - b));
            std::vector<FourierPolynomial> spectra(count,
                                                   FourierPolynomial(n));
            std::vector<TorusPolynomial> ref(count, TorusPolynomial(n));
            std::vector<TorusPolynomial> start;
            for (unsigned i = 0; i < count; ++i) {
                spectra[i].re(0) = values[b + i] * (n / 2);
                fft.inverse(spectra[i], ref[i]);
                start.push_back(randomTorusPoly(n, rng));
            }
            std::vector<TorusPolynomial> got = start;
            inverseAddBatch(spectra, got);
            for (unsigned i = 0; i < count; ++i) {
                const double v = values[b + i];
                ASSERT_EQ(got[i][0] - start[i][0], detail::roundToTorus(v))
                    << fftDispatchTierName(tier) << " v = " << v;
                for (unsigned j = 0; j < n; ++j)
                    ASSERT_EQ(got[i][j] - start[i][j], ref[i][j])
                        << fftDispatchTierName(tier) << " v = " << v
                        << " coefficient " << j;
            }
        }
    }
}

TEST(BatchFftTiers, RoundtripRecoversTorusPolynomials)
{
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x707 + static_cast<unsigned>(tier));
        for (const unsigned n : {16u, 128u, 1024u}) {
            const unsigned count = 9;
            std::vector<IntPolynomial> orig;
            for (unsigned i = 0; i < count; ++i)
                orig.push_back(randomIntPoly(n, rng));
            std::vector<TorusPolynomial> back;
            inverseAddBatch(forwardBatch(orig), back);
            // The FFT roundtrip error is orders of magnitude below the
            // rounding step, so recovery is exact.
            for (unsigned i = 0; i < count; ++i)
                for (unsigned j = 0; j < n; ++j)
                    ASSERT_EQ(static_cast<std::int32_t>(back[i][j]),
                              orig[i][j])
                        << fftDispatchTierName(tier) << " N " << n
                        << " poly " << i << " index " << j;
        }
    }
}

TEST(BatchFftTiers, ProductMatchesSchoolbookNegacyclic)
{
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x5B5B + static_cast<unsigned>(tier));
        const unsigned n = 512;
        const auto &fft = NegacyclicFft::forDegree(n);

        // Small multiplier digits (the gadget decomposition range) keep
        // the schoolbook accumulation exactly representable.
        IntPolynomial a(n);
        for (unsigned i = 0; i < n; ++i)
            a[i] = static_cast<std::int32_t>(rng.nextU32() & 0xFF) - 128;
        const auto b = randomTorusPoly(n, rng);

        FourierPolynomial fa(n), fb(n), acc(n);
        fft.forward(a, fa);
        fft.forward(b, fb);
        acc.mulAddAssign(fa, fb);
        TorusPolynomial viaFft(n);
        fft.inverse(acc, viaFft);

        TorusPolynomial exact(n);
        negacyclicMulAddSchoolbook(exact, a, b);
        for (unsigned i = 0; i < n; ++i)
            EXPECT_LT(torusDistance(viaFft[i], exact[i]), 1.0 / (1 << 20))
                << fftDispatchTierName(tier) << " coeff " << i;
    }
}

TEST(BatchFftTiers, ForwardMatchesComplexFftUpToPermutation)
{
    // A full group of kMaxFftLanes spectra at N = 256 against the
    // radix-2 reference, bin by bin through the derived permutation,
    // with a tolerance relative to each bin.
    const unsigned n = 256, half = n / 2;
    const auto perm = derivePermutation(n);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0xC0C0 + static_cast<unsigned>(tier));
        std::vector<IntPolynomial> polys;
        for (unsigned i = 0; i < detail::kMaxFftLanes; ++i)
            polys.push_back(randomIntPoly(n, rng));
        const auto spectra = forwardBatch(polys);
        std::vector<double> re, im;
        for (unsigned i = 0; i < polys.size(); ++i) {
            referenceSpectrum(polys[i], re, im);
            for (unsigned k = 0; k < half; ++k) {
                // Bins of full-range int32 inputs reach ~2^35, where a
                // handful of ulps of engine-order difference against
                // the radix-2 reference is expected.
                const double tol =
                    1e-12 * (std::abs(re[k]) + std::abs(im[k]) + 1.0);
                EXPECT_NEAR(spectra[i].re(perm[k]), re[k], tol)
                    << fftDispatchTierName(tier) << " poly " << i
                    << " bin " << k;
                EXPECT_NEAR(spectra[i].im(perm[k]), im[k], tol)
                    << fftDispatchTierName(tier) << " poly " << i
                    << " bin " << k;
            }
        }
    }
}

TEST(BatchFftTiers, ExternalProductBitIdenticalAcrossTiers)
{
    // The full workspace external product must give byte-identical
    // ciphertexts whichever tier computed it: run once per tier and
    // compare against the scalar tier's output.
    const auto &params = paramsTest();
    Rng rng(0xACE5);
    const auto key = GlweKey::generate(params, rng);
    const auto fggsw = FourierGgsw::fromGgsw(
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng));
    GlweCiphertext input(params.glweDimension, params.polyDegree);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c) = randomTorusPoly(params.polyDegree, rng);

    GlweCiphertext scalarResult;
    {
        DispatchGuard guard(FftDispatchTier::kScalar);
        BootstrapWorkspace ws;
        externalProductFourier(fggsw, input, scalarResult, ws);
    }
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        BootstrapWorkspace ws;
        GlweCiphertext result;
        externalProductFourier(fggsw, input, result, ws);
        for (unsigned c = 0; c <= params.glweDimension; ++c)
            EXPECT_EQ(result.component(c), scalarResult.component(c))
                << fftDispatchTierName(tier) << " component " << c;
    }
}

// ---------------------------------------------------------------------
// The integer kernels of each tier: the tile CMux's fused
// rotate-and-decompose against the reference CMux's two passes, and the
// key switch's row update across tiers (exact integer equality).
// ---------------------------------------------------------------------

TEST(IntegerKernelTiers, RotateDiffDecomposeMatchesTwoPassReference)
{
    // Every power in [0, 2N), at the blind-rotation gadget and ring
    // degree of sets I (2^10, 2), B (2^8, 2), C (2^6, 3), F128 (2^6, 4)
    // and TEST (2^7, 3).
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        const detail::BatchKernels &kernels = detail::activeBatchKernels();
        for (const char *name : {"I", "B", "C", "F128", "TEST"}) {
            const auto &params = paramsByName(name);
            const unsigned n = params.polyDegree;
            const auto plan =
                makeGadgetPlan(params.bskBaseBits, params.bskLevels);
            Rng rng(0xD1FF);
            const auto acc = randomTorusPoly(n, rng);
            TorusPolynomial diff(n);
            std::vector<IntPolynomial> want(plan.levels, IntPolynomial(n));
            std::vector<IntPolynomial> got(plan.levels, IntPolynomial(n));
            std::vector<std::int32_t *> rows;
            for (auto &p : got)
                rows.push_back(p.data());
            for (unsigned power = 0; power < 2 * n; ++power) {
                acc.rotateDiffInto(power, diff);
                gadgetDecomposePlannedInto(diff, plan, want.data());
                kernels.rotateDiffDecompose(n, acc.data(), power, plan,
                                            rows.data());
                for (unsigned l = 0; l < plan.levels; ++l)
                    ASSERT_EQ(got[l], want[l])
                        << fftDispatchTierName(tier) << " set " << name
                        << " power " << power << " level " << l;
            }
        }
    }
}

TEST(IntegerKernelTiers, KeySwitchByteEqualAcrossTiers)
{
    // KeySwitchKey::applyInto and the chunk-major applyBatch on every
    // tier against the scalar tier's applyInto, at TEST (l_k = 6, base
    // 2^2) and set I (l_k = 2, base 2^8).
    for (const char *name : {"TEST", "I"}) {
        const auto &params = paramsByName(name);
        Rng rng(0x5C5C);
        const auto source = GlweKey::generate(params, rng).extractLweKey();
        const auto target = LweKey::generate(params, rng);
        const auto ksk = KeySwitchKey::generate(source, target, rng);
        std::vector<LweCiphertext> inputs;
        for (std::uint32_t m = 0; m < 4; ++m)
            inputs.push_back(LweCiphertext::encrypt(
                source, encodeMessage(m, 4), params.lweNoiseStd, rng));

        std::vector<LweCiphertext> want(inputs.size());
        {
            DispatchGuard guard(FftDispatchTier::kScalar);
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                ksk.applyInto(inputs[i], want[i]);
                EXPECT_EQ(lweDecrypt(target, want[i], 4), i)
                    << "set " << name;
            }
        }
        for (const auto tier : supportedFftDispatchTiers()) {
            DispatchGuard guard(tier);
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                LweCiphertext got;
                ksk.applyInto(inputs[i], got);
                EXPECT_EQ(got.raw(), want[i].raw())
                    << "set " << name << ' ' << fftDispatchTierName(tier)
                    << " message " << i;
            }
            std::vector<LweCiphertext> batch(inputs.size());
            ksk.applyBatch(inputs.data(), batch.data(),
                           static_cast<unsigned>(inputs.size()));
            for (std::size_t i = 0; i < inputs.size(); ++i)
                EXPECT_EQ(batch[i].raw(), want[i].raw())
                    << "set " << name << ' ' << fftDispatchTierName(tier)
                    << " batch message " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Batched blind rotation against the per-ciphertext cmuxRotateInPlace
// loop (exact integer equality), its workspace shape and its
// allocation behaviour.
// ---------------------------------------------------------------------

/** A bootstrapping key of `entries` GGSWs at `params`' ring geometry:
 *  the rotation arithmetic of the full key at a fraction of its cost. */
BootstrapKey
shortBsk(const TfheParams &params, unsigned entries, Rng &rng)
{
    std::vector<std::int32_t> bits(entries);
    for (auto &b : bits)
        b = static_cast<std::int32_t>(rng.nextU32() & 1);
    return BootstrapKey::generate(LweKey(params, bits),
                                  GlweKey::generate(params, rng), rng);
}

/** `count` mod-switched ciphertexts for an n-entry key, uniform in
 *  [0, 2N). On even iterations every third mask is zero (staggered per
 *  ciphertext): a lane-resident tile runs those lanes' rounds as
 *  identities, and the row-lane path skips them, which leaves short
 *  tiles; odd iterations keep whole tiles whole. */
std::vector<std::vector<std::uint32_t>>
randomSwitched(unsigned count, unsigned n, unsigned poly_degree, Rng &rng)
{
    std::vector<std::vector<std::uint32_t>> out(
        count, std::vector<std::uint32_t>(n + 1));
    for (unsigned j = 0; j < count; ++j) {
        for (unsigned i = 0; i <= n; ++i) {
            out[j][i] = (i < n && i % 2 == 0 && (i + j) % 3 == 0)
                            ? 0
                            : rng.nextU32() % (2 * poly_degree);
        }
    }
    return out;
}

/** The reference rotation: ACC_0 = X^(-b~) * (0,..,0,TP), then one
 *  cmuxRotateInPlace per nonzero mask. */
GlweCiphertext
cmuxLoopRotation(const BootstrapKey &bsk, const TorusPolynomial &tp,
                 const std::vector<std::uint32_t> &switched)
{
    const unsigned n = bsk.size();
    const unsigned two_n = 2 * tp.degree();
    const unsigned k = bsk.entry(0).numCols() - 1;
    GlweCiphertext acc = GlweCiphertext::trivial(
        k, tp.mulByXPower((two_n - switched[n]) % two_n));
    BootstrapWorkspace ws;
    for (unsigned i = 0; i < n; ++i) {
        if (switched[i] != 0)
            cmuxRotateInPlace(bsk.entry(i), acc, switched[i], ws);
    }
    return acc;
}

TEST(BlindRotateBatch, ByteEqualToCmuxLoopOnEveryTier)
{
    // TEST (k = 1, l_b = 3), set B (k = 2), set C (k = 3, l_b = 3),
    // set I (k = 1, l_b = 2, the number of record), set III (N = 2048:
    // no radix-2 tail) and set A (N = 4096: a tail, and planes four
    // times set I's). Per tier of width W the counts give the row-lane
    // leftover alone (1, W-1), one lane-resident tile (W), and calls
    // that mix both (W+1, 2W, 3W-1, 16, 64). Every ciphertext has some
    // zero masks, so every lane of a full tile runs an identity round.
    // One workspace per tier serves every count, and stale accumulators
    // from the previous count must be rebuilt.
    for (const char *name : {"TEST", "B", "C", "I", "III", "A"}) {
        const auto &params = paramsByName(name);
        Rng rng(0xBA7C4);
        const auto bsk = shortBsk(params, 24, rng);
        const auto tp = randomTorusPoly(params.polyDegree, rng);
        const auto switched =
            randomSwitched(64, bsk.size(), params.polyDegree, rng);
        for (const auto &sw : switched)
            ASSERT_NE(std::find(sw.begin(), sw.end() - 1, 0u), sw.end() - 1)
                << "set " << name << ": a ciphertext without a zero mask";
        std::vector<GlweCiphertext> want;
        {
            DispatchGuard guard(FftDispatchTier::kScalar);
            for (const auto &sw : switched)
                want.push_back(cmuxLoopRotation(bsk, tp, sw));
        }
        for (const auto tier : supportedFftDispatchTiers()) {
            DispatchGuard guard(tier);
            BootstrapWorkspace ws;
            std::vector<GlweCiphertext> accs(switched.size());
            const unsigned w = blindRotateTile();
            for (const unsigned count :
                 {1u, w - 1, w, w + 1, 2 * w, 3 * w - 1, 16u, 64u}) {
                if (count == 0)
                    continue;
                blindRotateBatch(bsk, tp, switched.data(), accs.data(),
                                 count, ws);
                for (unsigned j = 0; j < count; ++j) {
                    for (unsigned c = 0; c <= params.glweDimension; ++c)
                        EXPECT_EQ(accs[j].component(c),
                                  want[j].component(c))
                            << "set " << name << ' '
                            << fftDispatchTierName(tier) << " count "
                            << count << " ciphertext " << j
                            << " component " << c;
                }
            }
        }
    }
}

TEST(BlindRotateBatch, WorkspaceHoldsTheCallsFullTilesOnly)
{
    const auto &params = paramsTest();
    Rng rng(0x711E);
    const auto bsk = shortBsk(params, 8, rng);
    const auto tp = randomTorusPoly(params.polyDegree, rng);
    const auto switched =
        randomSwitched(19, bsk.size(), params.polyDegree, rng);
    const std::size_t cols = params.glweDimension + 1;
    const std::size_t rows = cols * params.bskLevels;
    const std::size_t n = params.polyDegree;

    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        const std::size_t w = blindRotateTile();
        const std::size_t lanes = w > 1 ? w : 0;
        const char *tier_name = fftDispatchTierName(tier);

        // A one-ciphertext rotation keeps the single-ciphertext shape:
        // (k+1)*l_b digit spectra, k+1 accumulators and no lane buffers.
        BootstrapWorkspace ws;
        GlweCiphertext acc;
        blindRotate(bsk, tp, switched[0], acc, ws);
        EXPECT_EQ(ws.digits.size(), rows);
        EXPECT_EQ(ws.digitsF.size(), rows);
        EXPECT_EQ(ws.accF.size(), cols);
        EXPECT_TRUE(ws.laneAcc.empty());
        EXPECT_TRUE(ws.laneDigits.empty());
        EXPECT_TRUE(ws.digitPlanes.empty());
        EXPECT_TRUE(ws.accPlanes.empty());

        // A 16-ciphertext rotation is whole tiles only (W divides 16),
        // zero masks included: laneAcc grows to all 16 lane-resident
        // accumulators (16/W tiles), the round scratch to one W-lane
        // tile, and the row-lane buffers keep their depth of 1. On the
        // scalar tier (W = 1) every tile is row-lane and the lane
        // buffers stay empty.
        std::vector<GlweCiphertext> accs(switched.size());
        const std::size_t resident = lanes > 0 ? 16 : 0;
        const auto expectLaneBuffers = [&] {
            EXPECT_EQ(ws.laneAcc.size(), resident * cols * n) << tier_name;
            EXPECT_EQ(ws.laneDigits.size(), rows * n * lanes) << tier_name;
            EXPECT_EQ(ws.digitPlanes.size(), 2 * rows * lanes * n / 2)
                << tier_name;
            EXPECT_EQ(ws.accPlanes.size(), 2 * cols * lanes * n / 2)
                << tier_name;
        };
        blindRotateBatch(bsk, tp, switched.data(), accs.data(), 16, ws);
        EXPECT_EQ(ws.digits.size(), rows) << tier_name;
        EXPECT_EQ(ws.digitsF.size(), rows) << tier_name;
        EXPECT_EQ(ws.accF.size(), cols) << tier_name;
        expectLaneBuffers();

        // 19 leaves 3 ciphertexts after the full tiles (4 tiles on AVX2,
        // 2 on AVX-512), which rotate row-lane in one tile of 3: the
        // row-lane depth grows to 3, laneAcc still holds 16 ciphertexts
        // and the round scratch one tile.
        blindRotateBatch(bsk, tp, switched.data(), accs.data(), 19, ws);
        const std::size_t depth = w > 1 ? 3 : 1;
        EXPECT_EQ(ws.digits.size(), depth * rows) << tier_name;
        EXPECT_EQ(ws.digitsF.size(), depth * rows) << tier_name;
        EXPECT_EQ(ws.accF.size(), depth * cols) << tier_name;
        expectLaneBuffers();
    }
}

TEST(AllocationGuard, WarmedUpBatchedRotationPerformsZeroAllocations)
{
    const auto &params = paramsTest();
    Rng rng(0xA110D);
    const auto bsk = shortBsk(params, 24, rng);
    const auto tp = randomTorusPoly(params.polyDegree, rng);
    const auto switched =
        randomSwitched(16, bsk.size(), params.polyDegree, rng);

    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        BootstrapWorkspace ws;
        std::vector<GlweCiphertext> accs(switched.size());
        blindRotateBatch(bsk, tp, switched.data(), accs.data(), 16, ws);
        blindRotateBatch(bsk, tp, switched.data(), accs.data(), 16, ws);

        g_allocs.store(0);
        g_track.store(true);
        blindRotateBatch(bsk, tp, switched.data(), accs.data(), 16, ws);
        g_track.store(false);

        EXPECT_EQ(g_allocs.load(), 0u)
            << fftDispatchTierName(tier)
            << ": warmed-up batched rotation must not touch the heap";
    }
}

} // namespace
} // namespace morphling::tfhe
