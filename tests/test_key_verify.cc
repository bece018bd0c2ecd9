/**
 * @file
 * Tests of the key-set verifier (tfhe/verify.h) at every entry point.
 * Each case breaks one rule of a usable key set; the four that once
 * reached the server's hot path (ring-degree-4 spectra, one extra
 * gadget level, KSK base bits 40, KSK entries of dimension 1) are among
 * them, and so is a gadget whose 32-bit levels·baseBits wraps. Every
 * case is rejected:
 *  - by verify() itself, with a diagnostic naming the rule;
 *  - at the decoder (tryLoadEvaluationKeys);
 *  - at RemoteServer::addKeys and the keyed BootstrapService
 *    constructor, with std::invalid_argument;
 *  - at MultiTenantService::addTenant, before anything changes;
 *  - over a loopback RemoteServer, which answers kMalformedFrame and
 *    then still serves a valid request.
 * A hand-built blob whose k + 1 wraps to 0 is rejected at the decoder
 * and over the loopback server too.
 * The keys of every named parameter set pass (test_bootstrap.cc); the
 * TEST set's pass here.
 */

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/remote_backend.h"
#include "exec/remote_protocol.h"
#include "exec/remote_server.h"
#include "service/bootstrap_service.h"
#include "service/multi_tenant_service.h"
#include "tfhe/encoding.h"
#include "tfhe/verify.h"

namespace morphling::tfhe {
namespace {

/** One broken key set and the rule its diagnostic names. */
struct BadKeys
{
    std::string name;
    EvaluationKeys keys;
    std::string diagnostic; //!< a fragment of verify()'s message
};

/** `rows` x `cols` zero spectra of ring degree `degree`. */
FourierGgsw
zeroGgsw(unsigned base_bits, unsigned levels, unsigned rows,
         unsigned cols, unsigned degree)
{
    std::vector<std::vector<FourierPolynomial>> data(
        rows, std::vector<FourierPolynomial>(cols, FourierPolynomial(degree)));
    return FourierGgsw::fromRows(base_bits, levels, std::move(data));
}

/** `keys` with BSK entry 0 replaced by `entry`. */
EvaluationKeys
withBskEntry0(const EvaluationKeys &keys, FourierGgsw entry)
{
    std::vector<FourierGgsw> entries;
    for (unsigned i = 0; i < keys.bsk.size(); ++i)
        entries.push_back(keys.bsk.entry(i));
    entries[0] = std::move(entry);
    EvaluationKeys out = keys;
    out.bsk = BootstrapKey::fromEntries(std::move(entries));
    return out;
}

/** `keys` with a KSK of zero entries in the given shape. */
EvaluationKeys
withKsk(const EvaluationKeys &keys, unsigned source_dim,
        unsigned target_dim, unsigned levels, unsigned base_bits,
        unsigned entry_dim)
{
    EvaluationKeys out = keys;
    out.ksk = KeySwitchKey::fromEntries(
        source_dim, target_dim, levels, base_bits,
        std::vector<LweCiphertext>(std::size_t{source_dim} * levels,
                                   LweCiphertext(entry_dim)));
    return out;
}

class KeyVerifyFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0x7E51F);
        keys_ = new KeySet(KeySet::generate(paramsTest(), rng));
        eval_ = new EvaluationKeys(EvaluationKeys::fromKeySet(*keys_));
    }
    static void
    TearDownTestSuite()
    {
        delete eval_;
        delete keys_;
        eval_ = nullptr;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    const EvaluationKeys &good() { return *eval_; }

    /** One case per rule of tfhe/verify.h. */
    std::vector<BadKeys>
    badKeys()
    {
        const TfheParams &p = good().params;
        const unsigned N = p.polyDegree;
        const unsigned n = p.lweDimension;
        const unsigned k = p.glweDimension;
        const unsigned lb = p.bskLevels;
        const unsigned bb = p.bskBaseBits;
        const unsigned kN = static_cast<unsigned>(p.extractedLweDimension());
        const unsigned lk = p.kskLevels;
        const unsigned kb = p.kskBaseBits;

        std::vector<BadKeys> cases;
        EvaluationKeys params = good();
        params.params.polyDegree = N - 12; // not a power of two
        cases.push_back({"params", params, "params: N must be a power of two"});
        EvaluationKeys wide_n = good();
        wide_n.params.lweDimension = kMaxLweDimension + 1;
        cases.push_back({"params_n_cap", wide_n, "params: n exceeds"});
        EvaluationKeys wide_k = good();
        wide_k.params.glweDimension = kMaxLweDimension / N + 1;
        cases.push_back({"params_kN_cap", wide_k, "params: k*N exceeds"});
        // Params and KSK agree on a gadget whose 32-bit product
        // 2·2^31 wraps to 0.
        EvaluationKeys wraps = withKsk(good(), kN, n, 2, 1u << 31, n);
        wraps.params.kskLevels = 2;
        wraps.params.kskBaseBits = 1u << 31;
        cases.push_back({"ksk_gadget_wraps", wraps,
                         "params: KSK gadget exceeds 32-bit torus"});

        std::vector<FourierGgsw> short_bsk;
        for (unsigned i = 0; i + 1 < good().bsk.size(); ++i)
            short_bsk.push_back(good().bsk.entry(i));
        EvaluationKeys bsk_count = good();
        bsk_count.bsk = BootstrapKey::fromEntries(std::move(short_bsk));
        cases.push_back({"bsk_count", bsk_count, "BSK has"});

        cases.push_back(
            {"extra_gadget_level",
             withBskEntry0(good(), zeroGgsw(bb, lb + 1, (k + 1) * (lb + 1),
                                            k + 1, N)),
             "BSK entry 0 is"});
        cases.push_back(
            {"bsk_columns",
             withBskEntry0(good(), zeroGgsw(bb, lb, (k + 1) * lb, k + 2, N)),
             "BSK entry 0 is"});
        cases.push_back(
            {"bsk_levels",
             withBskEntry0(good(), zeroGgsw(bb, lb + 1, (k + 1) * lb, k + 1,
                                            N)),
             "BSK entry 0 has gadget"});
        cases.push_back(
            {"bsk_base_bits",
             withBskEntry0(good(), zeroGgsw(bb + 1, lb, (k + 1) * lb, k + 1,
                                            N)),
             "BSK entry 0 has gadget"});
        cases.push_back(
            {"ring_degree_4",
             withBskEntry0(good(), zeroGgsw(bb, lb, (k + 1) * lb, k + 1, 4)),
             "ring degree 4"});

        cases.push_back({"ksk_source", withKsk(good(), kN - 1, n, lk, kb, n),
                         "KSK maps dimension"});
        cases.push_back({"ksk_target",
                         withKsk(good(), kN, n + 1, lk, kb, n + 1),
                         "KSK maps dimension"});
        cases.push_back({"ksk_levels", withKsk(good(), kN, n, lk + 1, kb, n),
                         "KSK has gadget"});
        cases.push_back({"ksk_base_bits_40",
                         withKsk(good(), kN, n, lk, 40, n),
                         "KSK has gadget"});
        cases.push_back({"ksk_entry_dimension_1",
                         withKsk(good(), kN, n, lk, kb, 1),
                         "has dimension 1"});
        return cases;
    }

    /**
     * A hand-built enrollment blob that no EvaluationKeys serializes
     * to: k = 2^32 - 1, so k + 1 wraps to 0 in 32 bits, n = 1, and one
     * GGSW header of 0 x 0 rows. A decoder computing the GGSW shape in
     * 32 bits took it for a well-shaped empty GGSW and panicked.
     */
    std::string
    wrappedShapeBlob()
    {
        std::ostringstream eval, params, blob;
        saveEvaluationKeys(eval, good());
        saveParams(params, good().params);
        blob << eval.str().substr(0, eval.str().find(params.str()));
        TfheParams p = good().params;
        p.glweDimension = 0xFFFFFFFFu;
        p.lweDimension = 1;
        saveParams(blob, p);
        for (const std::uint32_t word : {1u, p.bskBaseBits, p.bskLevels,
                                         0u, 0u}) {
            blob.write(reinterpret_cast<const char *>(&word),
                       sizeof(word));
        }
        return blob.str();
    }

    std::vector<LweCiphertext>
    encryptBatch(std::size_t count)
    {
        std::vector<LweCiphertext> out;
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(encryptPadded(
                keys(), static_cast<std::uint32_t>(i % 4), 4, rng));
        }
        return out;
    }

    static exec::RemoteClientConfig
    clientConfig(std::uint16_t port)
    {
        exec::RemoteClientConfig config;
        config.port = port;
        config.requestTimeout = std::chrono::seconds(120);
        config.connectTimeout = std::chrono::milliseconds(500);
        return config;
    }

    Rng rng{0xC0FFEE};

    static KeySet *keys_;
    static EvaluationKeys *eval_;
};

KeySet *KeyVerifyFixture::keys_ = nullptr;
EvaluationKeys *KeyVerifyFixture::eval_ = nullptr;

TEST_F(KeyVerifyFixture, GeneratedKeysPass)
{
    EXPECT_EQ(verify(good()), std::nullopt);
}

TEST_F(KeyVerifyFixture, EachRuleHasItsDiagnostic)
{
    for (const BadKeys &bad : badKeys()) {
        const auto problem = verify(bad.keys);
        ASSERT_TRUE(problem.has_value()) << bad.name;
        EXPECT_NE(problem->find(bad.diagnostic), std::string::npos)
            << bad.name << ": " << *problem;
    }
    // A default-constructed key set is refused, not dereferenced.
    EvaluationKeys empty;
    empty.params = good().params;
    EXPECT_NE(verify(empty), std::nullopt);
}

TEST_F(KeyVerifyFixture, DecoderRejectsEachCase)
{
    for (const BadKeys &bad : badKeys()) {
        std::stringstream blob(std::ios::in | std::ios::out |
                               std::ios::binary);
        saveEvaluationKeys(blob, bad.keys);
        std::string error;
        EXPECT_FALSE(tryLoadEvaluationKeys(blob, &error).has_value())
            << bad.name;
        EXPECT_FALSE(error.empty()) << bad.name;
    }

    std::istringstream blob(wrappedShapeBlob());
    std::string error;
    EXPECT_FALSE(tryLoadEvaluationKeys(blob, &error).has_value());
    EXPECT_NE(error.find("k*N exceeds"), std::string::npos) << error;
}

TEST_F(KeyVerifyFixture, AddKeysAndKeyedServiceThrowInvalidArgument)
{
    exec::RemoteServer server;
    for (const BadKeys &bad : badKeys()) {
        EXPECT_THROW(server.addKeys(bad.keys), std::invalid_argument)
            << bad.name;
        EXPECT_THROW(service::BootstrapService svc(bad.keys),
                     std::invalid_argument)
            << bad.name;
    }
    EXPECT_EQ(server.addKeys(good()), fingerprintEvaluationKeys(good()));
}

TEST_F(KeyVerifyFixture, AddTenantRejectsBeforeAnythingChanges)
{
    telemetry::MetricsRegistry metrics;
    service::MultiTenantConfig config;
    config.service.superbatchSize = 4;
    config.service.maxWait = std::chrono::milliseconds(2);
    config.metrics = &metrics;
    service::MultiTenantService front(config);
    const KeyFingerprint fp = front.addTenant("alice", good());
    const auto held = front.keys("alice");
    const service::LutId lut = front.registerLut(
        "alice", makePaddedLut(4, [](std::uint32_t m) { return m; }));

    for (const BadKeys &bad : badKeys()) {
        // Neither a new tenant nor a rotation of an enrolled one.
        EXPECT_THROW(front.addTenant("mallory", bad.keys),
                     std::invalid_argument)
            << bad.name;
        EXPECT_THROW((void)front.stats("mallory"), std::out_of_range);
        EXPECT_THROW(front.addTenant("alice", bad.keys),
                     std::invalid_argument)
            << bad.name;
    }
    EXPECT_EQ(front.keys("alice"), held);
    EXPECT_EQ(front.registry().stats().evictions, 0u);
    EXPECT_EQ(front.addTenant("alice", good()), fp); // no rotation

    auto f = front.submit("alice", encryptPadded(keys(), 2, 4, rng), lut);
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready);
    EXPECT_EQ(decryptPadded(keys(), f.get(), 4), 2u);
}

TEST_F(KeyVerifyFixture, LoopbackServerRejectsEachCaseAndKeepsServing)
{
    exec::RemoteServer server;
    server.start(); // keys arrive only over the wire

    const auto lut = makePaddedLut(4, [](std::uint32_t m) { return m; });
    const compiler::Program program =
        compiler::SwScheduler(good().params).scheduleBootstrapBatch(16);
    const auto inputs = encryptBatch(16);
    const exec::Job job = exec::Job::batch(inputs, lut);

    for (const BadKeys &bad : badKeys()) {
        // A client holding the bad keys auto-enrolls them on its first
        // request; the server refuses the enrollment, typed.
        exec::RemoteBackend client(bad.keys, clientConfig(server.port()));
        try {
            (void)client.run(program, job);
            ADD_FAILURE() << bad.name << ": enrollment was accepted";
        } catch (const exec::remote::RemoteError &e) {
            EXPECT_EQ(e.kind(), exec::remote::RemoteErrorKind::kMalformedFrame)
                << bad.name << ": " << e.what();
        }

        // The same server then serves a valid client.
        exec::RemoteBackend valid(good(), clientConfig(server.port()));
        const auto result = valid.run(program, job);
        ASSERT_EQ(result.outputs.size(), inputs.size()) << bad.name;
        for (std::size_t i = 0; i < inputs.size(); ++i)
            EXPECT_EQ(decryptPadded(keys(), result.outputs[i], 4), i % 4)
                << bad.name;
    }

    // A raw enrollment frame no client would send gets the same typed
    // answer, and the server still serves.
    const auto deadline =
        exec::remote::deadlineAfter(std::chrono::seconds(10));
    exec::remote::Socket raw = exec::remote::connectTcp(
        "127.0.0.1", server.port(), std::chrono::seconds(5));
    exec::remote::sendHello(raw, exec::remote::FrameType::kHello, deadline);
    exec::remote::checkHello(exec::remote::recvFrame(raw, deadline),
                             exec::remote::FrameType::kHelloAck);
    const std::string blob = wrappedShapeBlob();
    exec::remote::sendFrame(raw, exec::remote::FrameType::kEnrollKeys,
                            std::vector<std::uint8_t>(blob.begin(),
                                                      blob.end()),
                            deadline);
    const auto reply = exec::remote::recvFrame(raw, deadline);
    ASSERT_EQ(reply.type, exec::remote::FrameType::kError);
    EXPECT_EQ(exec::remote::decodeError(reply).kind(),
              exec::remote::RemoteErrorKind::kMalformedFrame);
    exec::RemoteBackend valid(good(), clientConfig(server.port()));
    EXPECT_EQ(valid.run(program, job).outputs.size(), inputs.size());

    EXPECT_EQ(server.stats().enrollments, 1u); // the valid keys, once
    server.stop();
}

} // namespace
} // namespace morphling::tfhe
