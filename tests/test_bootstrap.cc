/**
 * @file
 * End-to-end bootstrapping tests: modulus switching, test-polynomial
 * construction, blind rotation, programmable bootstrapping round-trips
 * and noise-refresh behaviour. Runs on the reduced TEST parameter set,
 * plus an identity round trip on every named set, whose generated keys
 * must also pass the key verifier (tfhe/verify.h).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/params.h"
#include "tfhe/verify.h"

namespace morphling::tfhe {
namespace {

class BootstrapFixture : public ::testing::Test
{
  protected:
    // Key generation is the slow part; share it across tests.
    static void
    SetUpTestSuite()
    {
        Rng rng(20240704);
        keys_ = new KeySet(KeySet::generate(paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{987654321};

    static KeySet *keys_;
};

KeySet *BootstrapFixture::keys_ = nullptr;

TEST_F(BootstrapFixture, ModSwitchShape)
{
    const auto ct = LweCiphertext::encrypt(
        keys().lweKey, encodeMessage(1, 4),
        keys().params.lweNoiseStd, rng);
    const auto switched = modSwitch(ct, keys().params.polyDegree);
    EXPECT_EQ(switched.size(), keys().params.lweDimension + 1);
    for (auto v : switched)
        EXPECT_LT(v, 2 * keys().params.polyDegree);
}

TEST_F(BootstrapFixture, ModSwitchPreservesPhaseApproximately)
{
    const Torus32 mu = encodeMessage(1, 4);
    const auto ct = LweCiphertext::encrypt(
        keys().lweKey, mu, keys().params.lweNoiseStd, rng);
    const auto switched = modSwitch(ct, keys().params.polyDegree);

    // Reconstruct the phase in the 2N domain.
    const unsigned two_n = 2 * keys().params.polyDegree;
    std::uint64_t acc = switched[keys().params.lweDimension];
    for (unsigned i = 0; i < keys().params.lweDimension; ++i) {
        if (keys().lweKey.bits()[i])
            acc += two_n - switched[i];
    }
    const double phase = static_cast<double>(acc % two_n) / two_n;
    // Within a generous bound of the original 1/4 (mod-switch adds
    // rounding noise of roughly sqrt(n)/2N).
    EXPECT_NEAR(phase, 0.25, 0.05);
}

TEST_F(BootstrapFixture, TestPolynomialLayout)
{
    const unsigned n_poly = 64;
    const std::vector<Torus32> lut = {10, 20, 30, 40};
    const auto tp = buildTestPolynomial(n_poly, lut);
    // Slot m spans [m*N/p - N/2p, m*N/p + N/2p); probe slot centers.
    EXPECT_EQ(tp[0], 10u);
    EXPECT_EQ(tp[16], 20u);
    EXPECT_EQ(tp[32], 30u);
    EXPECT_EQ(tp[48], 40u);
    // Top half-slot holds -lut[0] for the negacyclic wrap of message 0
    // with negative noise.
    EXPECT_EQ(tp[n_poly - 1], static_cast<Torus32>(-10));
    EXPECT_EQ(tp[n_poly - 8], static_cast<Torus32>(-10));
}

TEST_F(BootstrapFixture, IdentityBootstrapRoundTrip)
{
    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return m;
    });
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys(), m, space, rng);
        const auto out = programmableBootstrap(keys(), ct, lut);
        EXPECT_EQ(decryptPadded(keys(), out, space), m) << "m=" << m;
    }
}

TEST_F(BootstrapFixture, FunctionEvaluationViaLut)
{
    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return (3 * m + 1) % 4;
    });
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys(), m, space, rng);
        const auto out = programmableBootstrap(keys(), ct, lut);
        EXPECT_EQ(decryptPadded(keys(), out, space), (3 * m + 1) % 4)
            << "m=" << m;
    }
}

TEST_F(BootstrapFixture, ReluLutClampsUpperHalf)
{
    const std::uint32_t space = 8;
    const auto lut = makeReluLut(space);
    const std::uint32_t expected[] = {0, 1, 2, 3, 0, 0, 0, 0};
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys(), m, space, rng);
        const auto out = programmableBootstrap(keys(), ct, lut);
        EXPECT_EQ(decryptPadded(keys(), out, space), expected[m])
            << "m=" << m;
    }
}

TEST_F(BootstrapFixture, BootstrapResetsAccumulatedNoise)
{
    // Add several fresh ciphertexts of 0 to build up noise, then check
    // the bootstrap output's noise is back near the fresh level.
    const std::uint32_t space = 4;
    auto noisy = encryptPadded(keys(), 1, space, rng);
    for (int i = 0; i < 8; ++i) {
        auto zero = encryptPadded(keys(), 0, space, rng);
        noisy.addAssign(zero);
    }
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return m;
    });
    const auto refreshed = programmableBootstrap(keys(), noisy, lut);

    const Torus32 expected = encodePadded(1, space);
    const double noise_after =
        torusDistance(refreshed.phase(keys().lweKey), expected);
    EXPECT_LT(noise_after, 0.01);
    EXPECT_EQ(decryptPadded(keys(), refreshed, space), 1u);
}

TEST_F(BootstrapFixture, SignBootstrapSeparatesHalves)
{
    const Torus32 mu = boolMu();
    // Phase in (0, 1/2) -> +mu.
    const auto pos = LweCiphertext::encrypt(
        keys().lweKey, doubleToTorus32(0.2),
        keys().params.lweNoiseStd, rng);
    const auto out_pos = signBootstrap(keys(), pos, mu);
    EXPECT_LT(torusDistance(out_pos.phase(keys().lweKey), mu), 0.05);

    // Phase in (-1/2, 0) -> -mu.
    const auto neg = LweCiphertext::encrypt(
        keys().lweKey, doubleToTorus32(-0.2),
        keys().params.lweNoiseStd, rng);
    const auto out_neg = signBootstrap(keys(), neg, mu);
    EXPECT_LT(torusDistance(out_neg.phase(keys().lweKey), 0 - mu), 0.05);
}

TEST_F(BootstrapFixture, BlindRotateOnTrivialInputReadsLut)
{
    // With a noiseless (trivial) input ciphertext the blind rotation
    // must hit the exact LUT slot.
    const std::uint32_t space = 8;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return (m * m) % 8;
    });
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = LweCiphertext::trivial(
            keys().params.lweDimension, encodePadded(m, space));
        const auto out = programmableBootstrap(keys(), ct, lut);
        EXPECT_EQ(decryptPadded(keys(), out, space), (m * m) % 8)
            << "m=" << m;
    }
}

TEST_F(BootstrapFixture, ChainedBootstrapsStayCorrect)
{
    // Bootstrap output must be a valid input for further bootstraps
    // (the property every multi-layer workload relies on).
    const std::uint32_t space = 4;
    const auto inc = makePaddedLut(space, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    auto ct = encryptPadded(keys(), 0, space, rng);
    for (int round = 1; round <= 4; ++round) {
        ct = programmableBootstrap(keys(), ct, inc);
        EXPECT_EQ(decryptPadded(keys(), ct, space),
                  static_cast<std::uint32_t>(round % 4))
            << "round " << round;
    }
}

// Full-size paper parameter sets: one complete programmable bootstrap
// round-trip per message on EVERY set of Table III (including the
// k = 2 and k = 3 sets and the single-level sets IV/A, which exercise
// quite different gadget and FFT regimes).
class BootstrapPaperParams : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BootstrapPaperParams, IdentityBootstrapRoundTrip)
{
    Rng rng(5150);
    const KeySet keys = KeySet::generate(paramsByName(GetParam()), rng);
    // Every parameter family's generated keys pass the key verifier.
    EXPECT_EQ(verify(EvaluationKeys::fromKeySet(keys)), std::nullopt);
    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return m;
    });
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys, m, space, rng);
        const auto out = programmableBootstrap(keys, ct, lut);
        EXPECT_EQ(decryptPadded(keys, out, space), m) << "m=" << m;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSets, BootstrapPaperParams,
                         ::testing::Values("I", "II", "III", "IV", "A",
                                           "B", "C", "F128"),
                         [](const auto &info) {
                             return std::string("Set") + info.param;
                         });

} // namespace
} // namespace morphling::tfhe
