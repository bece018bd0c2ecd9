/**
 * @file
 * Tests for the zero-allocation bootstrap hot path: workspace vs.
 * legacy entry-point equivalence (exact integer equality), the radix-4
 * FFT engine against the radix-2 reference, the planned gadget
 * decomposition and in-place rotations against their scalar originals,
 * every SIMD tier's batched transforms, rounding store and integer
 * kernels against the scalar references, the iteration-major batched
 * blind rotation against the per-ciphertext CMux loop on every tier,
 * and an operator-new hook asserting that a warmed-up bootstrap (and
 * batched rotation) through the workspace performs zero heap
 * allocations on every tier.
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
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
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

// ---------------------------------------------------------------------
// Radix-4 engine vs. the radix-2 reference.
//
// The radix-4 engine emits its spectrum in digit-reversed order; the
// permutation is recovered numerically (a complex exponential of
// frequency k transforms to a single peak at whatever index the engine
// stores bin k at), asserted to be a bijection, and then used to
// compare against the natural-order radix-2 reference.
// ---------------------------------------------------------------------

std::vector<unsigned>
probePermutation(const Radix4Fft &fft)
{
    const unsigned m = fft.size();
    std::vector<unsigned> perm(m, m);
    std::vector<bool> hit(m, false);
    std::vector<double> re(m), im(m);
    for (unsigned k = 0; k < m; ++k) {
        for (unsigned j = 0; j < m; ++j) {
            const double angle = 2.0 * M_PI * static_cast<double>(k) *
                                 static_cast<double>(j) /
                                 static_cast<double>(m);
            re[j] = std::cos(angle);
            im[j] = std::sin(angle);
        }
        fft.forwardPermuted(re.data(), im.data());
        unsigned peak = m;
        for (unsigned t = 0; t < m; ++t) {
            if (std::abs(re[t]) > m / 2.0) {
                EXPECT_EQ(peak, m) << "two peaks for frequency " << k;
                peak = t;
            }
        }
        EXPECT_LT(peak, m) << "no peak for frequency " << k;
        perm[k] = peak;
        EXPECT_FALSE(hit[peak]) << "permutation not injective at " << k;
        hit[peak] = true;
    }
    return perm;
}

class Radix4Sizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Radix4Sizes, ForwardMatchesRadix2UpToPermutation)
{
    const unsigned m = GetParam();
    const Radix4Fft r4(m);
    const ComplexFft r2(m);
    const auto perm = probePermutation(r4);

    Rng rng(100 + m);
    std::vector<double> re(m), im(m), re4(m), im4(m);
    for (unsigned j = 0; j < m; ++j) {
        re[j] = rng.nextDouble() * 2.0 - 1.0;
        im[j] = rng.nextDouble() * 2.0 - 1.0;
        re4[j] = re[j];
        im4[j] = im[j];
    }
    r2.forward(re.data(), im.data());
    r4.forwardPermuted(re4.data(), im4.data());
    for (unsigned k = 0; k < m; ++k) {
        EXPECT_NEAR(re4[perm[k]], re[k], 1e-9 * m) << "bin " << k;
        EXPECT_NEAR(im4[perm[k]], im[k], 1e-9 * m) << "bin " << k;
    }
}

TEST_P(Radix4Sizes, InverseMatchesRadix2UpToPermutation)
{
    const unsigned m = GetParam();
    const Radix4Fft r4(m);
    const ComplexFft r2(m);
    const auto perm = probePermutation(r4);

    Rng rng(200 + m);
    std::vector<double> re(m), im(m), re4(m), im4(m);
    for (unsigned k = 0; k < m; ++k) {
        re[k] = rng.nextDouble() * 2.0 - 1.0;
        im[k] = rng.nextDouble() * 2.0 - 1.0;
    }
    for (unsigned k = 0; k < m; ++k) {
        re4[perm[k]] = re[k];
        im4[perm[k]] = im[k];
    }
    r2.inverse(re.data(), im.data());
    r4.inversePermuted(re4.data(), im4.data());
    for (unsigned j = 0; j < m; ++j) {
        EXPECT_NEAR(re4[j], re[j], 1e-9 * m) << "index " << j;
        EXPECT_NEAR(im4[j], im[j], 1e-9 * m) << "index " << j;
    }
}

TEST_P(Radix4Sizes, RoundtripIsScaledIdentity)
{
    const unsigned m = GetParam();
    const Radix4Fft r4(m);
    Rng rng(300 + m);
    std::vector<double> re(m), im(m), orig_re(m), orig_im(m);
    for (unsigned j = 0; j < m; ++j) {
        re[j] = orig_re[j] = rng.nextDouble() * 1e3;
        im[j] = orig_im[j] = rng.nextDouble() * 1e3;
    }
    r4.forwardPermuted(re.data(), im.data());
    r4.inversePermuted(re.data(), im.data());
    for (unsigned j = 0; j < m; ++j) {
        EXPECT_NEAR(re[j], m * orig_re[j], 1e-6 * m);
        EXPECT_NEAR(im[j], m * orig_im[j], 1e-6 * m);
    }
}

TEST_P(Radix4Sizes, ImpulseTransformsToFlatSpectrum)
{
    const unsigned m = GetParam();
    const Radix4Fft r4(m);
    std::vector<double> re(m, 0.0), im(m, 0.0);
    re[0] = 1.0;
    r4.forwardPermuted(re.data(), im.data());
    for (unsigned t = 0; t < m; ++t) {
        EXPECT_NEAR(re[t], 1.0, 1e-12);
        EXPECT_NEAR(im[t], 0.0, 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Radix4Sizes,
                         ::testing::Values(8u, 16u, 64u, 128u, 256u));

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
              /*slots=*/tfhe::detail::kMaxFftLanes);
    for (const auto &fp : ws.digitsF) {
        EXPECT_TRUE(isSimdAligned(fp.reData()));
        EXPECT_TRUE(isSimdAligned(fp.imData()));
    }
    for (const auto &fp : ws.accF) {
        EXPECT_TRUE(isSimdAligned(fp.reData()));
        EXPECT_TRUE(isSimdAligned(fp.imData()));
    }
    // Each interleaved plane: its real block, then its imaginary block.
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
// The batched FFT engine: for every supported tier, batched transforms
// must be bit-identical to the scalar single-polynomial engine, match
// the radix-2 reference up to the engine permutation, round-trip, and
// agree with the schoolbook negacyclic product.
// ---------------------------------------------------------------------

IntPolynomial
randomIntPoly(unsigned n, Rng &rng)
{
    IntPolynomial p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = static_cast<std::int32_t>(rng.nextU32());
    return p;
}

TEST(BatchFftTiers, ForwardBitIdenticalToScalarEngine)
{
    // Randomized ring degrees (with and without the radix-2 tail, and
    // small enough to force the scalar fallback under wide tiers) and
    // randomized batch counts around the lane-width boundaries.
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0xF0F0 + static_cast<unsigned>(tier));
        for (const unsigned n : {8u, 16u, 32u, 128u, 512u, 1024u, 2048u}) {
            const BatchFft bfft(n);
            for (const unsigned count : {1u, 2u, 5u, 8u, 9u, 17u}) {
                std::vector<IntPolynomial> polys;
                std::vector<const IntPolynomial *> in;
                std::vector<FourierPolynomial> batched(
                    count, FourierPolynomial(n));
                std::vector<FourierPolynomial *> out;
                for (unsigned i = 0; i < count; ++i) {
                    polys.push_back(randomIntPoly(n, rng));
                    out.push_back(&batched[i]);
                }
                for (unsigned i = 0; i < count; ++i)
                    in.push_back(&polys[i]);
                bfft.forward(in.data(), out.data(), count);

                FourierPolynomial ref(n);
                for (unsigned i = 0; i < count; ++i) {
                    bfft.engine().forward(polys[i], ref);
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
        for (const unsigned n : {8u, 32u, 256u, 1024u}) {
            const BatchFft bfft(n);
            for (const unsigned count : {1u, 4u, 8u, 11u}) {
                // Realistic spectra: forward transforms of random torus
                // polynomials, scaled up as an accumulated dot product
                // would be.
                std::vector<FourierPolynomial> spectra(
                    count, FourierPolynomial(n));
                for (unsigned i = 0; i < count; ++i) {
                    const auto tp = randomTorusPoly(n, rng);
                    bfft.engine().forward(tp, spectra[i]);
                }

                std::vector<TorusPolynomial> ref(count,
                                                 TorusPolynomial(n));
                for (unsigned i = 0; i < count; ++i)
                    bfft.engine().inverse(spectra[i], ref[i]);

                std::vector<FourierPolynomial *> in;
                std::vector<TorusPolynomial> got(count,
                                                 TorusPolynomial(n));
                std::vector<TorusPolynomial *> out;
                for (unsigned i = 0; i < count; ++i) {
                    in.push_back(&spectra[i]);
                    out.push_back(&got[i]);
                }
                bfft.inverseInPlace(in.data(), out.data(), count);
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
    // near-ties just inside them, the 2^31/2^32 wrap points, the 2^53
    // precision edge, the 2^62 guard of roundToTorus, and random values
    // of every magnitude up to 2^91. Coefficient 0 must be exactly
    // roundToTorus(v), the rest must match the scalar engine, and both
    // must be added into outputs that start nonzero.
    std::vector<double> values = {
        0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1048576.5,
        -1048577.5, 1.5 - 0x1p-30, -(1.5 - 0x1p-30), 0.5 - 0x1p-30,
        -(0.5 - 0x1p-30), 0x1p31 + 0.5, 0x1p31 - 0.5, 0x1p32, -0x1p32,
        4294967295.5, -4294967295.5, 0x1p52 + 1, -(0x1p52 + 1),
        0x1p53 + 2, 0x1p62, -0x1p62, 0x1p62 - 512, 0x1p63, -0x1p63,
        3 * 0x1p70, -5 * 0x1p80};
    Rng vrng(0x0DD5);
    for (unsigned i = 0; i < 4000; ++i) {
        const double v = std::ldexp(1.0 + vrng.nextDouble(),
                                    static_cast<int>(vrng.nextU32() % 91));
        values.push_back(vrng.nextBit() ? -v : v);
    }

    // Groups of 9 fill the 8- or 4-lane kernels and leave one spectrum
    // for the single-polynomial fallback.
    const unsigned n = 64, group = 9;
    const BatchFft bfft(n);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x4D0 + static_cast<unsigned>(tier));
        for (std::size_t b = 0; b < values.size(); b += group) {
            const auto count = static_cast<unsigned>(
                std::min<std::size_t>(group, values.size() - b));
            std::vector<FourierPolynomial> spectra(count,
                                                   FourierPolynomial(n));
            std::vector<TorusPolynomial> ref(count, TorusPolynomial(n));
            std::vector<TorusPolynomial> start, got;
            std::vector<FourierPolynomial *> in;
            std::vector<TorusPolynomial *> out;
            for (unsigned i = 0; i < count; ++i) {
                spectra[i].re(0) = values[b + i] * (n / 2);
                bfft.engine().inverse(spectra[i], ref[i]);
                start.push_back(randomTorusPoly(n, rng));
            }
            got = start;
            for (unsigned i = 0; i < count; ++i) {
                in.push_back(&spectra[i]);
                out.push_back(&got[i]);
            }
            bfft.inverseInPlace(in.data(), out.data(), count);
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
            const BatchFft bfft(n);
            const unsigned count = 9;
            std::vector<TorusPolynomial> orig;
            std::vector<const std::int32_t *> in;
            std::vector<FourierPolynomial> spectra(count,
                                                   FourierPolynomial(n));
            std::vector<FourierPolynomial *> spectraP;
            for (unsigned i = 0; i < count; ++i) {
                orig.push_back(randomTorusPoly(n, rng));
                spectraP.push_back(&spectra[i]);
            }
            for (unsigned i = 0; i < count; ++i)
                in.push_back(reinterpret_cast<const std::int32_t *>(
                    orig[i].data()));
            bfft.forward(in.data(), spectraP.data(), count);

            std::vector<TorusPolynomial> back(count, TorusPolynomial(n));
            std::vector<TorusPolynomial *> backP;
            for (unsigned i = 0; i < count; ++i)
                backP.push_back(&back[i]);
            bfft.inverseInPlace(spectraP.data(), backP.data(), count);
            // The FFT roundtrip error is orders of magnitude below the
            // rounding step, so recovery is exact.
            for (unsigned i = 0; i < count; ++i)
                EXPECT_EQ(back[i], orig[i])
                    << fftDispatchTierName(tier) << " N " << n
                    << " poly " << i;
        }
    }
}

TEST(BatchFftTiers, ProductMatchesSchoolbookNegacyclic)
{
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x5B5B + static_cast<unsigned>(tier));
        const unsigned n = 512;
        const BatchFft bfft(n);

        // Small multiplier digits (the gadget decomposition range) keep
        // the schoolbook accumulation exactly representable.
        IntPolynomial a(n);
        for (unsigned i = 0; i < n; ++i)
            a[i] = static_cast<std::int32_t>(rng.nextU32() & 0xFF) - 128;
        const auto b = randomTorusPoly(n, rng);

        FourierPolynomial fa(n), fb(n), acc(n);
        const IntPolynomial *ap = &a;
        FourierPolynomial *fap = &fa;
        bfft.forward(&ap, &fap, 1);
        bfft.engine().forward(b, fb);
        acc.clear();
        acc.mulAddAssign(fa, fb);

        TorusPolynomial viaFft(n);
        FourierPolynomial *accp = &acc;
        TorusPolynomial *outp = &viaFft;
        bfft.inverseInPlace(&accp, &outp, 1);

        TorusPolynomial exact(n);
        negacyclicMulAddSchoolbook(exact, a, b);
        for (unsigned i = 0; i < n; ++i)
            EXPECT_LT(torusDistance(viaFft[i], exact[i]), 1.0 / (1 << 20))
                << fftDispatchTierName(tier) << " coeff " << i;
    }
}

TEST(BatchFftTiers, ForwardMatchesComplexFftUpToPermutation)
{
    // The batched negacyclic forward against the ground-truth radix-2
    // reference: fold + twist by hand, reference transform in natural
    // order, then compare through the engine's recovered permutation.
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0xC0C0 + static_cast<unsigned>(tier));
        const unsigned n = 256, half = n / 2;
        const BatchFft bfft(n);
        const ComplexFft reference(half);
        const auto perm = probePermutation(Radix4Fft(half));

        const auto poly = randomIntPoly(n, rng);
        const IntPolynomial *in = &poly;
        FourierPolynomial spectrum(n);
        FourierPolynomial *out = &spectrum;
        bfft.forward(&in, &out, 1);

        std::vector<double> re(half), im(half);
        for (unsigned j = 0; j < half; ++j) {
            const double angle = M_PI * static_cast<double>(j) /
                                 static_cast<double>(n);
            const double lo = poly[j], hi = poly[j + half];
            re[j] = lo * std::cos(angle) - hi * std::sin(angle);
            im[j] = lo * std::sin(angle) + hi * std::cos(angle);
        }
        reference.forward(re.data(), im.data());
        for (unsigned k = 0; k < half; ++k) {
            // Relative tolerance: bins of full-range int32 inputs reach
            // ~2^35, where a handful of ulps of engine-order difference
            // against the radix-2 reference is expected.
            const double tol =
                1e-12 * (std::abs(re[k]) + std::abs(im[k]) + 1.0);
            EXPECT_NEAR(spectrum.re(perm[k]), re[k], tol)
                << fftDispatchTierName(tier) << " bin " << k;
            EXPECT_NEAR(spectrum.im(perm[k]), im[k], tol)
                << fftDispatchTierName(tier) << " bin " << k;
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
    // KeySwitchKey::applyInto on every tier against the scalar tier, at
    // TEST (l_k = 6, base 2^2) and set I (l_k = 2, base 2^8).
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
        }
    }
}

// ---------------------------------------------------------------------
// Iteration-major batched blind rotation against the per-ciphertext
// cmuxRotateInPlace loop (exact integer equality), its workspace shape
// and its allocation behaviour.
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
 *  ciphertext), so the CMux skip path leaves short tiles; odd
 *  iterations keep whole tiles whole. */
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
    // TEST (k = 1, l_b = 3), set B (k = 2) and set I (k = 1, l_b = 2,
    // the number of record). Per tier of width W the counts give a
    // short row-lane tile alone (1, W-1), a full slot-lane tile (W),
    // and calls that mix both (W+1, 2W, 16 with the skipped masks). One
    // workspace per tier serves every count, and stale accumulators
    // from the previous count must be rebuilt.
    for (const char *name : {"TEST", "B", "I"}) {
        const auto &params = paramsByName(name);
        Rng rng(0xBA7C4);
        const auto bsk = shortBsk(params, 24, rng);
        const auto tp = randomTorusPoly(params.polyDegree, rng);
        const auto switched =
            randomSwitched(16, bsk.size(), params.polyDegree, rng);
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
            const unsigned w = blindRotateTile(params.glweDimension);
            for (const unsigned count : {1u, w - 1, w, w + 1, 2 * w, 16u}) {
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

TEST(BlindRotateBatch, WorkspaceGrowsToOneTileOnly)
{
    const auto &params = paramsTest();
    Rng rng(0x711E);
    const auto bsk = shortBsk(params, 8, rng);
    const auto tp = randomTorusPoly(params.polyDegree, rng);
    // Every mask odd, so nonzero: 16 ciphertexts make whole tiles only.
    auto switched = randomSwitched(16, bsk.size(), params.polyDegree, rng);
    for (auto &sw : switched)
        for (auto &a : sw)
            a |= 1;
    const std::size_t cols = params.glweDimension + 1;
    const std::size_t rows = cols * params.bskLevels;
    const std::size_t half = params.polyDegree / 2;

    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        const std::size_t w = blindRotateTile(params.glweDimension);
        const std::size_t slots = w > 1 ? w : 0;

        // A one-ciphertext rotation keeps the single-ciphertext shape:
        // (k+1)*l_b digit spectra, k+1 accumulators and no planes.
        BootstrapWorkspace ws;
        GlweCiphertext acc;
        blindRotate(bsk, tp, switched[0], acc, ws);
        EXPECT_EQ(ws.digits.size(), rows);
        EXPECT_EQ(ws.digitsF.size(), rows);
        EXPECT_EQ(ws.accF.size(), cols);
        EXPECT_TRUE(ws.digitPlanes.empty());
        EXPECT_TRUE(ws.accPlanes.empty());

        // A 16-ciphertext rotation grows it to one W-slot tile, not to
        // the batch: digit rows for W slots and the two interleaved
        // planes, while the row-lane buffers keep their depth of 1. On
        // the scalar tier (W = 1) every tile stays row-lane.
        std::vector<GlweCiphertext> accs(switched.size());
        blindRotateBatch(bsk, tp, switched.data(), accs.data(), 16, ws);
        const char *tier_name = fftDispatchTierName(tier);
        EXPECT_EQ(ws.digits.size(), w * rows) << tier_name;
        EXPECT_EQ(ws.digitsF.size(), rows) << tier_name;
        EXPECT_EQ(ws.accF.size(), cols) << tier_name;
        EXPECT_EQ(ws.digitPlanes.size(), 2 * rows * slots * half)
            << tier_name;
        EXPECT_EQ(ws.accPlanes.size(), 2 * cols * slots * half)
            << tier_name;
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
