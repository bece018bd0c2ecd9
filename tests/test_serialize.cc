/**
 * @file
 * Tests of binary serialization: round trips for parameters, keys and
 * ciphertexts; the client/server split (server bootstraps with
 * evaluation keys only); and strict rejection of malformed streams
 * (death tests).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::tfhe {
namespace {

class SerializeFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0x5E81A);
        keys_ = new KeySet(KeySet::generate(paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0xD15C};

    static KeySet *keys_;
};

KeySet *SerializeFixture::keys_ = nullptr;

TEST_F(SerializeFixture, ParamsRoundTrip)
{
    std::stringstream ss;
    saveParams(ss, keys().params);
    const TfheParams back = loadParams(ss);
    EXPECT_EQ(back.name, keys().params.name);
    EXPECT_EQ(back.polyDegree, keys().params.polyDegree);
    EXPECT_EQ(back.lweDimension, keys().params.lweDimension);
    EXPECT_EQ(back.bskLevels, keys().params.bskLevels);
    EXPECT_EQ(back.kskBaseBits, keys().params.kskBaseBits);
    EXPECT_DOUBLE_EQ(back.lweNoiseStd, keys().params.lweNoiseStd);
}

TEST_F(SerializeFixture, CiphertextRoundTripBitExact)
{
    const auto ct = encryptPadded(keys(), 3, 4, rng);
    std::stringstream ss;
    saveCiphertext(ss, ct);
    const auto back = loadCiphertext(ss);
    EXPECT_EQ(back.raw(), ct.raw());
}

TEST_F(SerializeFixture, LweKeyRoundTrip)
{
    std::stringstream ss;
    saveLweKey(ss, keys().lweKey);
    const auto back = loadLweKey(ss, keys().params);
    EXPECT_EQ(back.bits(), keys().lweKey.bits());

    // The reloaded key decrypts ciphertexts made with the original.
    const auto ct = encryptPadded(keys(), 2, 4, rng);
    EXPECT_EQ(lweDecrypt(back, ct, 8), lweDecrypt(keys().lweKey, ct, 8));
}

TEST_F(SerializeFixture, ClientServerSplit)
{
    // Client: keeps the secret key, ships evaluation keys + ciphertext.
    std::stringstream wire;
    saveEvaluationKeys(wire,
                       EvaluationKeys::fromKeySet(keys()));
    const auto ct = encryptPadded(keys(), 2, 4, rng);
    std::stringstream ct_wire;
    saveCiphertext(ct_wire, ct);

    // Server: reconstructs everything from the streams and bootstraps
    // without any secret material.
    const EvaluationKeys server_keys = loadEvaluationKeys(wire);
    const auto server_ct = loadCiphertext(ct_wire);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto result = serverBootstrap(server_keys, server_ct, lut);

    // Client: decrypts the response.
    EXPECT_EQ(decryptPadded(keys(), result, 4), 3u);
}

TEST_F(SerializeFixture, ServerBootstrapMatchesLocal)
{
    std::stringstream wire;
    saveEvaluationKeys(wire, EvaluationKeys::fromKeySet(keys()));
    const EvaluationKeys server_keys = loadEvaluationKeys(wire);

    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    for (std::uint32_t m = 0; m < 4; ++m) {
        const auto ct = encryptPadded(keys(), m, 4, rng);
        const auto remote = serverBootstrap(server_keys, ct, lut);
        const auto local = programmableBootstrap(keys(), ct, lut);
        // Same keys, same input: bit-identical outputs.
        EXPECT_EQ(remote.raw(), local.raw()) << m;
    }
}

TEST_F(SerializeFixture, FingerprintStableAcrossRoundTrip)
{
    // The fingerprint is derived from the canonical wire format, so a
    // second process that deserializes the same keys computes the same
    // value — the property the server's key store and the remote
    // client's enrollment check rely on.
    const EvaluationKeys eval = EvaluationKeys::fromKeySet(keys());
    const KeyFingerprint fp = fingerprintEvaluationKeys(eval);
    EXPECT_EQ(fp, fingerprintEvaluationKeys(eval)); // deterministic

    std::stringstream wire;
    saveEvaluationKeys(wire, eval);
    const EvaluationKeys reloaded = loadEvaluationKeys(wire);
    EXPECT_EQ(fingerprintEvaluationKeys(reloaded), fp);

    // The hex rendering is 16 lowercase hex digits.
    const std::string hex = fingerprintHex(fp);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"),
              std::string::npos);

    // Wire size is the serialized length (what the registry budgets).
    EXPECT_EQ(evaluationKeysWireBytes(eval), wire.str().size());
}

TEST_F(SerializeFixture, FingerprintDistinguishesKeys)
{
    const EvaluationKeys eval = EvaluationKeys::fromKeySet(keys());
    const KeyFingerprint fp = fingerprintEvaluationKeys(eval);

    // A different tenant's key ceremony yields a different fingerprint.
    Rng other_rng(0x7E4A47);
    const KeySet other =
        KeySet::generate(paramsTest(), other_rng);
    EXPECT_NE(fingerprintEvaluationKeys(
                  EvaluationKeys::fromKeySet(other)),
              fp);

    // Even a single mutated KSK entry changes it: rebuild the keys
    // from a serialized stream with one flipped payload byte.
    std::stringstream wire;
    saveEvaluationKeys(wire, eval);
    std::string bytes = wire.str();
    bytes[bytes.size() - 5] ^= 0x01; // inside the last KSK ciphertext
    std::stringstream mutated(bytes);
    const EvaluationKeys reloaded = loadEvaluationKeys(mutated);
    EXPECT_NE(fingerprintEvaluationKeys(reloaded), fp);
}

TEST_F(SerializeFixture, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "JUNKJUNKJUNKJUNK";
    EXPECT_EXIT(loadParams(ss), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST_F(SerializeFixture, RejectsTruncatedStream)
{
    std::stringstream ss;
    saveCiphertext(ss, encryptPadded(keys(), 1, 4, rng));
    const std::string full = ss.str();
    std::stringstream cut;
    cut << full.substr(0, full.size() / 2);
    EXPECT_EXIT(loadCiphertext(cut), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST_F(SerializeFixture, RejectsWrongObjectType)
{
    std::stringstream ss;
    saveCiphertext(ss, encryptPadded(keys(), 1, 4, rng));
    EXPECT_EXIT(loadParams(ss), ::testing::ExitedWithCode(1),
                "type tag");
}

// --- tryLoadEvaluationKeys: the non-fatal decode surface a network
// --- server parses untrusted enrollment blobs through.

TEST_F(SerializeFixture, TryLoadRoundTripsGoodKeys)
{
    std::stringstream ss;
    saveEvaluationKeys(ss, EvaluationKeys::fromKeySet(keys()));
    std::string error;
    const auto back = tryLoadEvaluationKeys(ss, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(fingerprintEvaluationKeys(*back),
              fingerprintEvaluationKeys(
                  EvaluationKeys::fromKeySet(keys())));
}

TEST_F(SerializeFixture, TryLoadSurvivesTruncatedStream)
{
    std::stringstream ss;
    saveEvaluationKeys(ss, EvaluationKeys::fromKeySet(keys()));
    const std::string full = ss.str();
    // Cut at several depths: header, mid-BSK, just before the end.
    for (const std::size_t cut :
         {std::size_t{3}, full.size() / 2, full.size() - 5}) {
        std::stringstream truncated;
        truncated << full.substr(0, cut);
        std::string error;
        const auto back = tryLoadEvaluationKeys(truncated, &error);
        EXPECT_FALSE(back.has_value()) << "cut at " << cut;
        EXPECT_FALSE(error.empty()) << "cut at " << cut;
    }
}

TEST_F(SerializeFixture, TryLoadRejectsGarbageWithoutExiting)
{
    std::stringstream ss;
    ss << "JUNKJUNKJUNKJUNKJUNKJUNKJUNK";
    std::string error;
    const auto back = tryLoadEvaluationKeys(ss, &error);
    EXPECT_FALSE(back.has_value());
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(SerializeFixture, TryLoadRejectsCorruptedDimensions)
{
    std::stringstream ss;
    saveEvaluationKeys(ss, EvaluationKeys::fromKeySet(keys()));
    std::string wire = ss.str();
    // Stamp an implausible value over bytes early in the params
    // block; whatever field it lands on must be rejected, not
    // crashed on or allocated for.
    for (std::size_t at = 16; at < 64 && at + 4 <= wire.size();
         at += 8) {
        std::string corrupt = wire;
        corrupt[at] = '\xFF';
        corrupt[at + 1] = '\xFF';
        corrupt[at + 2] = '\xFF';
        corrupt[at + 3] = '\x7F';
        std::stringstream in(corrupt);
        std::string error;
        const auto back = tryLoadEvaluationKeys(in, &error);
        if (back.has_value())
            continue; // landed on a field where the value is legal
        EXPECT_FALSE(error.empty()) << "corruption at byte " << at;
    }
}

TEST_F(SerializeFixture, FatalLoadStillFatalsAfterTryLoad)
{
    // The thread-local try-parse mode must not leak: a tryLoad
    // followed by a trusting load keeps the fatal() behaviour.
    std::stringstream bad;
    bad << "JUNKJUNKJUNKJUNK";
    std::string error;
    EXPECT_FALSE(tryLoadEvaluationKeys(bad, &error).has_value());
    std::stringstream alsoBad;
    alsoBad << "JUNKJUNKJUNKJUNK";
    EXPECT_EXIT(loadParams(alsoBad), ::testing::ExitedWithCode(1),
                "bad magic");
}

} // namespace
} // namespace morphling::tfhe
