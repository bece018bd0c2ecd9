/**
 * @file
 * Tests of the multi-tenant front door (service/multi_tenant_service.h)
 * and its key counters (service/tenant_registry.h):
 *
 *  - key identity: addTenant() returns the serialize-layer
 *    fingerprint;
 *  - one copy: the tenant's key handle shares the caller's key
 *    storage, an identical re-enrollment keeps it and a rotation
 *    replaces it;
 *  - fairness under adversarial load: a flooding tenant exhausts its
 *    own token bucket and cannot push a trickle tenant past its SLO;
 *  - admission control: trySubmit bounces on an empty bucket, submit
 *    blocks until refill, a circuit costing more than the bucket
 *    depth is admitted against a full bucket (negative balance)
 *    instead of blocking forever, and a request refused for a wrong
 *    input count, an unknown LUT id or a saturated lane costs no
 *    token;
 *  - key rotation: re-adding a tenant with different keys applies to
 *    every later submission, while requests already queued finish
 *    under the keys they pinned — with no drain — and the old LUT ids
 *    are reclaimed once that work is done;
 *  - enrollment: a tenant racing its own addTenant is unknown until
 *    enrolled, never half enrolled;
 *  - one scheduler: backlogged tenants sharing one worker split it by
 *    weight;
 *  - misuse at the front door: an unknown LUT id or an unusable LUT
 *    throws instead of exiting the process, and so do an admission
 *    that shutdown wakes and an addTenant after shutdown;
 *  - per-tenant telemetry: labelled metrics land in both export
 *    formats, and the quantile estimator brackets the observations.
 *
 * All run under the `tenant` ctest label (plus tsan: the fairness
 * test is a genuine multi-threaded adversarial workload).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "service/multi_tenant_service.h"
#include "service/tenant_registry.h"
#include "tfhe/encoding.h"

namespace morphling::service {
namespace {

using namespace std::chrono_literals;
using tfhe::KeySet;
using tfhe::LweCiphertext;

constexpr std::uint32_t kSpace = 4;

class TenantFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rngA(0xA11CE);
        keysA_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rngA));
        evalA_ = new tfhe::EvaluationKeys(
            tfhe::EvaluationKeys::fromKeySet(*keysA_));
        Rng rngB(0xB0B);
        keysB_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rngB));
        evalB_ = new tfhe::EvaluationKeys(
            tfhe::EvaluationKeys::fromKeySet(*keysB_));
    }
    static void
    TearDownTestSuite()
    {
        delete evalB_;
        delete keysB_;
        delete evalA_;
        delete keysA_;
        keysA_ = keysB_ = nullptr;
        evalA_ = evalB_ = nullptr;
    }

    const KeySet &keysA() { return *keysA_; }
    const KeySet &keysB() { return *keysB_; }
    const tfhe::EvaluationKeys &evalA() { return *evalA_; }
    const tfhe::EvaluationKeys &evalB() { return *evalB_; }

    Rng rng{0x7E7A};

    LweCiphertext
    encryptA(std::uint32_t m)
    {
        return tfhe::encryptPadded(keysA(), m, kSpace, rng);
    }

    LweCiphertext
    encryptB(std::uint32_t m)
    {
        return tfhe::encryptPadded(keysB(), m, kSpace, rng);
    }

    static std::vector<tfhe::Torus32>
    plusOneLut()
    {
        return tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 1) % kSpace;
        });
    }

    /** A service template tuned for tiny test batches. */
    static ServiceConfig
    smallService()
    {
        ServiceConfig config;
        config.superbatchSize = 4;
        config.maxWait = 2ms;
        config.maxOutstanding = 32;
        return config;
    }

    static KeySet *keysA_, *keysB_;
    static tfhe::EvaluationKeys *evalA_, *evalB_;
};

KeySet *TenantFixture::keysA_ = nullptr;
KeySet *TenantFixture::keysB_ = nullptr;
tfhe::EvaluationKeys *TenantFixture::evalA_ = nullptr;
tfhe::EvaluationKeys *TenantFixture::evalB_ = nullptr;

TEST_F(TenantFixture, RegistryFingerprintMatchesSerializeLayer)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);
    const auto fp = front.addTenant("alice", evalA());
    EXPECT_EQ(fp, tfhe::fingerprintEvaluationKeys(evalA()));
    EXPECT_NE(fp, tfhe::fingerprintEvaluationKeys(evalB()));

    // Byte-identical re-enrollment is a no-op.
    EXPECT_EQ(front.addTenant("alice", evalA()), fp);
    EXPECT_EQ(front.registry().stats().evictions, 0u);
}

TEST_F(TenantFixture, RegistryHoldsOneCopyOfEachTenantsKeys)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // The tenant's handle shares the caller's key storage: enrolling
    // a tenant copies no key material.
    front.addTenant("a", evalA());
    const auto held = front.keys("a");
    EXPECT_EQ(held->bsk.entry(0).at(0, 0).reData(),
              evalA().bsk.entry(0).at(0, 0).reData());
    EXPECT_EQ(held->ksk.at(0, 0).raw().data(),
              evalA().ksk.at(0, 0).raw().data());

    // Byte-identical keys keep the handle; new keys replace it.
    front.addTenant("a", evalA());
    EXPECT_EQ(front.keys("a"), held);
    EXPECT_EQ(front.registry().stats().evictions, 0u);
    front.addTenant("a", evalB());
    const auto rotated = front.keys("a");
    EXPECT_NE(rotated, held);
    EXPECT_EQ(rotated->bsk.entry(0).at(0, 0).reData(),
              evalB().bsk.entry(0).at(0, 0).reData());
    EXPECT_EQ(front.registry().stats().evictions, 1u);
    EXPECT_EQ(front.registry().stats().warmUps, 0u);
    EXPECT_THROW((void)front.keys("nobody"), std::out_of_range);
}

TEST_F(TenantFixture, FloodingTenantCannotStarveTrickleTenant)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // The flood is rate-limited to its quota; the trickle tenant is
    // unthrottled with a generous latency SLO the flood must not be
    // able to break.
    TenantQuota floodQuota;
    floodQuota.ratePerSec = 400;
    floodQuota.burst = 8;
    TenantQuota trickleQuota;
    trickleQuota.sloLatencyUs = 2e6; // 2 s: orders above normal
    front.addTenant("flood", evalA(), floodQuota);
    front.addTenant("trickle", evalB(), trickleQuota);
    const LutId floodLut = front.registerLut("flood", plusOneLut());
    const LutId trickleLut =
        front.registerLut("trickle", plusOneLut());

    std::atomic<bool> stop{false};
    std::thread flooder([&] {
        Rng floodRng(0xF100D);
        std::vector<std::future<LweCiphertext>> futures;
        while (!stop.load()) {
            auto ct =
                tfhe::encryptPadded(keysA(), 1, kSpace, floodRng);
            if (auto f =
                    front.trySubmit("flood", std::move(ct), floodLut))
                futures.push_back(std::move(*f));
        }
        for (auto &f : futures)
            f.wait();
    });

    // The trickle tenant submits sequentially under the flood.
    for (unsigned i = 0; i < 12; ++i) {
        auto f = front.submit("trickle", encryptB(i % kSpace),
                              trickleLut);
        ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keysB(), f.get(), kSpace),
                  (i + 1) % kSpace);
        std::this_thread::sleep_for(2ms);
    }
    stop = true;
    flooder.join();

    const auto trickle = front.stats("trickle");
    const auto flood = front.stats("flood");
    EXPECT_EQ(trickle.completed, 12u);
    EXPECT_EQ(trickle.sloBreaches, 0u)
        << "flood pushed the trickle tenant past its SLO (p99 = "
        << trickle.p99LatencyUs << " us)";
    EXPECT_LE(trickle.p99LatencyUs, trickleQuota.sloLatencyUs);
    EXPECT_GT(flood.throttled, 0u)
        << "the flood was never throttled - the token bucket is not "
           "limiting admission";
    EXPECT_EQ(trickle.throttled, 0u);
}

TEST_F(TenantFixture, AdmissionBucketBouncesAndRefills)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // Warm-up pass with no quota: the first batch's compile and worker
    // spin-up must not eat into the bucket timing measured below.
    front.addTenant("capped", evalA());
    const LutId lut = front.registerLut("capped", plusOneLut());
    auto warm = front.submit("capped", encryptA(0), lut);
    ASSERT_EQ(warm.wait_for(60s), std::future_status::ready);
    warm.get();

    // Re-adding the tenant updates the quota in place: one token per
    // 200 ms, so the fail-fast sequence below cannot refill under it.
    TenantQuota quota;
    quota.ratePerSec = 5;
    quota.burst = 2;
    front.addTenant("capped", evalA(), quota);

    // The bucket starts full: exactly `burst` fail-fast admissions.
    auto f1 = front.trySubmit("capped", encryptA(0), lut);
    auto f2 = front.trySubmit("capped", encryptA(1), lut);
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());
    auto f3 = front.trySubmit("capped", encryptA(2), lut);
    EXPECT_FALSE(f3.has_value());
    EXPECT_EQ(front.stats("capped").throttled, 1u);

    // A blocking submit waits out the refill instead of bouncing.
    auto f4 = front.submit("capped", encryptA(3), lut);
    ASSERT_EQ(f1->wait_for(60s), std::future_status::ready);
    ASSERT_EQ(f2->wait_for(60s), std::future_status::ready);
    ASSERT_EQ(f4.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f4.get(), kSpace), 0u);
    EXPECT_EQ(front.stats("capped").completed, 4u);
}

TEST_F(TenantFixture, RejectedCircuitCostsItsTenantNothing)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // One token per 100 s and a bucket of two: had the wrong-count
    // circuit below drawn its two bootstraps, neither fail-fast
    // submission after it would be admitted.
    TenantQuota quota;
    quota.ratePerSec = 0.01;
    quota.burst = 2;
    front.addTenant("capped", evalA(), quota);
    const LutId lut = front.registerLut("capped", plusOneLut());

    circuit::Circuit c;
    const circuit::Wire x = c.bitInput();
    const circuit::Wire y = c.bitInput();
    c.markOutput(c.gate(tfhe::BoolGate::And, x, y));
    c.markOutput(c.gate(tfhe::BoolGate::Or, x, y));
    ASSERT_EQ(static_cast<double>(c.bootstrapCount()), quota.burst);
    std::vector<LweCiphertext> one_input;
    one_input.push_back(tfhe::encryptBit(keysA(), true, rng));
    EXPECT_THROW((void)front.submitCircuit("capped", c, std::move(one_input)),
                 std::invalid_argument);
    EXPECT_EQ(front.stats("capped").submitted, 0u);

    auto f1 = front.trySubmit("capped", encryptA(0), lut);
    auto f2 = front.trySubmit("capped", encryptA(1), lut);
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());
    EXPECT_FALSE(front.trySubmit("capped", encryptA(2), lut).has_value());
    ASSERT_EQ(f1->wait_for(60s), std::future_status::ready);
    ASSERT_EQ(f2->wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f2->get(), kSpace), 2u);
    const TenantStats stats = front.stats("capped");
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.throttled, 1u);
}

TEST_F(TenantFixture, UnknownLutIdCostsItsTenantNothing)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // One token per 100 s and a bucket of two: had the two submissions
    // naming an unknown LUT id below drawn a token each, neither
    // fail-fast submission after them would be admitted.
    TenantQuota quota;
    quota.ratePerSec = 0.01;
    quota.burst = 2;
    front.addTenant("capped", evalA(), quota);
    const LutId lut = front.registerLut("capped", plusOneLut());

    EXPECT_THROW((void)front.submit("capped", encryptA(0), lut + 1),
                 std::out_of_range);
    EXPECT_THROW((void)front.trySubmit("capped", encryptA(0), lut + 1),
                 std::out_of_range);
    EXPECT_EQ(front.stats("capped").submitted, 0u);
    EXPECT_EQ(front.stats("capped").throttled, 0u);

    auto f1 = front.trySubmit("capped", encryptA(0), lut);
    auto f2 = front.trySubmit("capped", encryptA(1), lut);
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());
    EXPECT_FALSE(front.trySubmit("capped", encryptA(2), lut).has_value());
    ASSERT_EQ(f1->wait_for(60s), std::future_status::ready);
    ASSERT_EQ(f2->wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f2->get(), kSpace), 2u);
    const TenantStats stats = front.stats("capped");
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.throttled, 1u);
}

TEST_F(TenantFixture, LaneBouncedRequestCostsItsTenantNothing)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    // One request fills the lane, and it stays queued until flush().
    config.service.maxOutstanding = 1;
    config.service.maxWait = 10s;
    config.metrics = &metrics;
    MultiTenantService front(config);

    // One token per 100 s and a bucket of two: had the bounced
    // submission below kept its token, the one after the lane frees
    // up would find the bucket empty.
    TenantQuota quota;
    quota.ratePerSec = 0.01;
    quota.burst = 2;
    front.addTenant("capped", evalA(), quota);
    const LutId lut = front.registerLut("capped", plusOneLut());

    auto f1 = front.trySubmit("capped", encryptA(0), lut);
    ASSERT_TRUE(f1.has_value());
    EXPECT_FALSE(front.trySubmit("capped", encryptA(1), lut).has_value());
    front.flush();
    ASSERT_EQ(f1->wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f1->get(), kSpace), 1u);

    auto f2 = front.trySubmit("capped", encryptA(2), lut);
    ASSERT_TRUE(f2.has_value());
    front.flush();
    ASSERT_EQ(f2->wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f2->get(), kSpace), 3u);
    const TenantStats stats = front.stats("capped");
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.throttled, 1u);
}

TEST_F(TenantFixture, ShutdownWakesAdmittersWithLogicError)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // One token per 100 s: the second submit waits in admission.
    TenantQuota quota;
    quota.ratePerSec = 0.01;
    quota.burst = 1;
    front.addTenant("slow", evalA(), quota);
    const LutId lut = front.registerLut("slow", plusOneLut());
    // An unthrottled tenant's circuit after shutdown: the service
    // refuses it, so it counts as no submission.
    front.addTenant("open", evalA());
    auto first = front.submit("slow", encryptA(0), lut);
    auto blocked = std::async(std::launch::async, [&] {
        return front.submit("slow", encryptA(1), lut);
    });
    std::this_thread::sleep_for(50ms);
    front.shutdown();
    EXPECT_THROW((void)blocked.get(), std::logic_error);
    ASSERT_EQ(first.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), first.get(), kSpace), 1u);

    EXPECT_THROW(front.addTenant("late", evalA()), std::logic_error);
    circuit::Circuit c;
    const circuit::Wire x = c.bitInput();
    const circuit::Wire y = c.bitInput();
    c.markOutput(c.gate(tfhe::BoolGate::Nand, x, y));
    std::vector<LweCiphertext> inputs;
    inputs.push_back(tfhe::encryptBit(keysA(), true, rng));
    inputs.push_back(tfhe::encryptBit(keysA(), false, rng));
    EXPECT_THROW((void)front.submitCircuit("open", c, std::move(inputs)),
                 std::logic_error);
    EXPECT_EQ(front.stats("open").submitted, 0u);
}

TEST_F(TenantFixture, OversizedCircuitAdmitsAgainstSmallBucket)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // Refill clamps tokens to burst, so a draw above the bucket depth
    // could never be covered by waiting: the blocking submitCircuit
    // must admit it against a full bucket (driving the balance
    // negative) rather than sleeping forever.
    TenantQuota quota;
    quota.ratePerSec = 1000;
    quota.burst = 2;
    front.addTenant("alice", evalA(), quota);

    circuit::Circuit c;
    std::vector<circuit::Wire> a, b, sum;
    for (unsigned i = 0; i < 4; ++i)
        a.push_back(c.bitInput());
    for (unsigned i = 0; i < 4; ++i)
        b.push_back(c.bitInput());
    const auto carry = circuit::buildRippleAdder(c, a, b, sum);
    for (auto w : sum)
        c.markOutput(w);
    c.markOutput(carry);
    ASSERT_GT(static_cast<double>(c.bootstrapCount()), quota.burst);

    const unsigned x = 5, y = 9;
    std::vector<LweCiphertext> inputs;
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back(
            tfhe::encryptBit(keysA(), ((x >> i) & 1) != 0, rng));
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back(
            tfhe::encryptBit(keysA(), ((y >> i) & 1) != 0, rng));

    auto f = front.submitCircuit("alice", c, std::move(inputs));
    ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
    const auto outputs = f.get();
    unsigned v = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        v |= static_cast<unsigned>(
                 tfhe::decryptBit(keysA(), outputs[i]))
             << i;
    }
    EXPECT_EQ(v, x + y);
}

TEST_F(TenantFixture, KeyRotationRefreshesLiveService)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    const LutId lut = front.registerLut("alice", plusOneLut());
    auto f1 = front.submit("alice", encryptA(1), lut);
    ASSERT_EQ(f1.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f1.get(), kSpace), 2u);

    // Rotate to key set B while the service is live: the next
    // submission runs under the new keys, with the same tenant LUT
    // id, instead of silently evaluating under the rotated-out ones.
    const auto fp = front.addTenant("alice", evalB());
    EXPECT_EQ(fp, tfhe::fingerprintEvaluationKeys(evalB()));

    auto f2 = front.submit("alice", encryptB(2), lut);
    ASSERT_EQ(f2.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysB(), f2.get(), kSpace), 3u);
}

TEST_F(TenantFixture, RotationUnderLoadKeepsEachRequestsKeys)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.service.numWorkers = 1;
    config.service.maxWait = 60s; // partial batches wait for flush()
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    const LutId lut = front.registerLut("alice", plusOneLut());

    // Ten requests per key set: two full batches of each run on the
    // worker, and the last two of each wait in a partial batch.
    constexpr unsigned kPerKeySet = 10;
    std::vector<std::future<LweCiphertext>> before, after;
    for (unsigned i = 0; i < kPerKeySet; ++i)
        before.push_back(front.submit("alice", encryptA(i % kSpace), lut));

    // Rotate with the old requests still queued: nothing drains, and
    // the same tenant LUT id serves both key sets.
    front.addTenant("alice", evalB());
    for (unsigned i = 0; i < kPerKeySet; ++i)
        after.push_back(front.submit("alice", encryptB(i % kSpace), lut));

    EXPECT_EQ(before.back().wait_for(0s), std::future_status::timeout);
    EXPECT_EQ(after.back().wait_for(0s), std::future_status::timeout);
    front.flush();

    for (unsigned i = 0; i < kPerKeySet; ++i) {
        ASSERT_EQ(before[i].wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keysA(), before[i].get(), kSpace),
                  (i + 1) % kSpace)
            << "request " << i << " admitted before the rotation";
        ASSERT_EQ(after[i].wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keysB(), after[i].get(), kSpace),
                  (i + 1) % kSpace)
            << "request " << i << " admitted after the rotation";
    }
    EXPECT_EQ(front.stats("alice").completed, 2u * kPerKeySet);
}

TEST_F(TenantFixture, RotationReclaimsRetiredLutIds)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.service.numWorkers = 1; // a batch retires before the next runs
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    const LutId plusOne = front.registerLut("alice", plusOneLut());
    const LutId plusTwo = front.registerLut(
        "alice", tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 2) % kSpace;
        }));

    // Each rotation registers both LUTs under fresh ids. The ids two
    // enrollments back have no work left, so they are reclaimed and
    // their slots reused: the count stays at two enrollments' worth.
    for (unsigned r = 0; r < 8; ++r) {
        const bool toB = r % 2 == 0;
        front.addTenant("alice", toB ? evalB() : evalA());
        const KeySet &keys = toB ? keysB() : keysA();
        auto f1 = front.submit(
            "alice", tfhe::encryptPadded(keys, 1, kSpace, rng), plusOne);
        auto f2 = front.submit(
            "alice", tfhe::encryptPadded(keys, 1, kSpace, rng), plusTwo);
        ASSERT_EQ(f1.wait_for(60s), std::future_status::ready);
        ASSERT_EQ(f2.wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keys, f1.get(), kSpace), 2u);
        EXPECT_EQ(tfhe::decryptPadded(keys, f2.get(), kSpace), 3u);
        EXPECT_LE(front.serviceStats().luts, 4u) << "rotation " << r;
    }

    // A reclaimed slot serves its new table, not programs compiled for
    // the one it held before.
    front.addTenant("bob", evalA());
    const LutId plusThree = front.registerLut(
        "bob", tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 3) % kSpace;
        }));
    EXPECT_EQ(front.serviceStats().luts, 3u);
    auto f = front.submit("bob", encryptA(2), plusThree);
    ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f.get(), kSpace), 1u);
}

TEST_F(TenantFixture, NewTenantIsNeverVisibleHalfEnrolled)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // A caller racing addTenant finds either no tenant or an enrolled
    // one, never one whose default parameters reject every LUT.
    for (unsigned i = 0; i < 8; ++i) {
        const TenantId name = "racer" + std::to_string(i);
        std::atomic<bool> halfEnrolled{false};
        std::thread racer([&] {
            for (;;) {
                try {
                    front.registerLut(name, plusOneLut());
                    return;
                } catch (const std::out_of_range &) {
                    std::this_thread::yield();
                } catch (const std::invalid_argument &) {
                    halfEnrolled = true;
                    return;
                }
            }
        });
        front.addTenant(name, evalA());
        racer.join();
        ASSERT_FALSE(halfEnrolled) << name;

        auto f = front.submit(name, encryptA(2), 0);
        ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keysA(), f.get(), kSpace), 3u);
    }
}

TEST_F(TenantFixture, BackloggedTenantsShareOneWorkerByWeight)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.service.numWorkers = 1;
    constexpr unsigned kPerTenant = 240;
    config.service.maxOutstanding = kPerTenant; // never blocks submit
    config.metrics = &metrics;
    MultiTenantService front(config);

    TenantQuota light, heavy;
    light.weight = 1;
    heavy.weight = 3;
    front.addTenant("light", evalA(), light);
    front.addTenant("heavy", evalB(), heavy);
    const LutId lutLight = front.registerLut("light", plusOneLut());
    const LutId lutHeavy = front.registerLut("heavy", plusOneLut());

    // Encrypt up front so submission outpaces the single worker and
    // both lanes stay backlogged.
    std::vector<LweCiphertext> inLight, inHeavy;
    for (unsigned i = 0; i < kPerTenant; ++i) {
        inLight.push_back(encryptA(i % kSpace));
        inHeavy.push_back(encryptB(i % kSpace));
    }
    std::vector<std::future<LweCiphertext>> outLight, outHeavy;
    for (unsigned i = 0; i < kPerTenant; ++i) {
        outLight.push_back(
            front.submit("light", std::move(inLight[i]), lutLight));
        outHeavy.push_back(
            front.submit("heavy", std::move(inHeavy[i]), lutHeavy));
    }

    // When the heavy tenant's last request completes the light tenant
    // is still backlogged; up to then the worker split its bootstraps
    // 1:3. Each share must be within 20% of its weight share.
    ASSERT_EQ(outHeavy.back().wait_for(120s), std::future_status::ready);
    const double doneLight =
        static_cast<double>(front.stats("light").bootstraps);
    const double doneHeavy =
        static_cast<double>(front.stats("heavy").bootstraps);
    EXPECT_LT(doneLight, kPerTenant);
    const double shareLight = doneLight / (doneLight + doneHeavy);
    const double shareHeavy = doneHeavy / (doneLight + doneHeavy);
    EXPECT_NEAR(shareLight / 0.25, 1.0, 0.2) << "light share " << shareLight;
    EXPECT_NEAR(shareHeavy / 0.75, 1.0, 0.2) << "heavy share " << shareHeavy;

    for (unsigned i = 0; i < kPerTenant; ++i) {
        ASSERT_EQ(outLight[i].wait_for(120s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keysA(), outLight[i].get(), kSpace),
                  (i + 1) % kSpace);
        EXPECT_EQ(tfhe::decryptPadded(keysB(), outHeavy[i].get(), kSpace),
                  (i + 1) % kSpace);
    }
}

TEST_F(TenantFixture, UnknownLutIdThrowsAtFrontDoor)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    front.addTenant("bob", evalB());
    const LutId lut = front.registerLut("alice", plusOneLut());
    front.registerLut("bob", plusOneLut());
    front.registerLut("bob", plusOneLut());

    // Ids are per tenant: bob's second LUT is no LUT of alice's.
    EXPECT_THROW((void)front.submit("alice", encryptA(1), 1),
                 std::out_of_range);
    EXPECT_THROW((void)front.trySubmit("alice", encryptA(1), 7),
                 std::out_of_range);
    EXPECT_EQ(front.stats("alice").submitted, 0u);

    auto f = front.submit("alice", encryptA(1), lut);
    ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f.get(), kSpace), 2u);
}

TEST_F(TenantFixture, RegisterLutRejectsUnusableTables)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    const unsigned n = evalA().params.polyDegree;
    EXPECT_THROW(front.registerLut("alice", {}), std::invalid_argument);
    EXPECT_THROW(
        front.registerLut("alice", std::vector<tfhe::Torus32>(n)),
        std::invalid_argument);
    EXPECT_THROW(front.registerLut("ghost", plusOneLut()),
                 std::out_of_range);

    // A refused table takes no id in the tenant's namespace.
    const LutId lut = front.registerLut("alice", plusOneLut());
    EXPECT_EQ(lut, 0u);
    auto f = front.submit("alice", encryptA(3), lut);
    ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f.get(), kSpace), 0u);
}

TEST_F(TenantFixture, LaneObserverCountsEveryCompletion)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);
    front.addTenant("alice", evalA());
    const LutId lut = front.registerLut("alice", plusOneLut());

    std::vector<std::future<LweCiphertext>> futures;
    for (std::uint32_t m = 0; m < 4; ++m)
        futures.push_back(front.submit("alice", encryptA(m), lut));

    // A 2-bit adder: one completion that retires all its bootstraps.
    circuit::Circuit c;
    std::vector<circuit::Wire> a, b, sum;
    for (unsigned i = 0; i < 2; ++i)
        a.push_back(c.bitInput());
    for (unsigned i = 0; i < 2; ++i)
        b.push_back(c.bitInput());
    const auto carry = circuit::buildRippleAdder(c, a, b, sum);
    for (auto w : sum)
        c.markOutput(w);
    c.markOutput(carry);
    std::vector<LweCiphertext> inputs;
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back(tfhe::encryptBit(keysA(), i % 2 == 0, rng));
    auto circuitOut = front.submitCircuit("alice", c, std::move(inputs));

    for (auto &f : futures)
        ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
    ASSERT_EQ(circuitOut.wait_for(60s), std::future_status::ready);

    const TenantStats stats = front.stats("alice");
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.completed, 5u); // single-LUT requests + circuit
    EXPECT_EQ(stats.bootstraps, 4u + c.bootstrapCount());
    EXPECT_GT(stats.meanLatencyUs, 0.0);
    EXPECT_EQ(front.serviceStats().completed, 4u);
    EXPECT_EQ(front.serviceStats().circuitsCompleted, 1u);
}

TEST_F(TenantFixture, RejectsDegenerateQuotasAndUnknownTenants)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    TenantQuota negative_rate;
    negative_rate.ratePerSec = -1;
    EXPECT_THROW(front.addTenant("x", evalA(), negative_rate),
                 std::invalid_argument);

    TenantQuota empty_bucket;
    empty_bucket.ratePerSec = 10;
    empty_bucket.burst = 0;
    EXPECT_THROW(front.addTenant("x", evalA(), empty_bucket),
                 std::invalid_argument);

    TenantQuota zero_weight;
    zero_weight.weight = 0;
    EXPECT_THROW(front.addTenant("x", evalA(), zero_weight),
                 std::invalid_argument);

    TenantQuota negative_slo;
    negative_slo.sloLatencyUs = -5;
    EXPECT_THROW(front.addTenant("x", evalA(), negative_slo),
                 std::invalid_argument);

    EXPECT_THROW((void)front.submit("ghost", encryptA(0), 0),
                 std::out_of_range);
    EXPECT_THROW((void)front.stats("ghost"), std::out_of_range);

    // The front door validates its service template up front.
    MultiTenantConfig bad;
    bad.service.backend = exec::BackendKind::kTiming;
    bad.metrics = &metrics;
    EXPECT_THROW(MultiTenantService rejected(bad),
                 std::invalid_argument);
}

TEST_F(TenantFixture, PerTenantMetricsReachBothExportFormats)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    {
        MultiTenantService front(config);
        front.addTenant("alice", evalA());
        const LutId lut = front.registerLut("alice", plusOneLut());
        auto f = front.submit("alice", encryptA(1), lut);
        ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
        f.get();
    }

    std::ostringstream json;
    metrics.writeJson(json);
    EXPECT_NE(json.str().find("tenant.alice.latency_us"),
              std::string::npos);
    EXPECT_NE(json.str().find("tenant.alice.completed"),
              std::string::npos);
    EXPECT_NE(json.str().find("tenant.alice.bootstraps"),
              std::string::npos);

    std::ostringstream prom;
    metrics.writePrometheus(prom);
    EXPECT_NE(prom.str().find("morphling_tenant_alice_latency_us"),
              std::string::npos);
    EXPECT_NE(prom.str().find("morphling_tenant_alice_bootstraps"),
              std::string::npos);
}

TEST(TenantQuantile, BracketsObservationsWithinOneLogBucket)
{
    telemetry::Histogram h("t", "");
    EXPECT_EQ(histogramQuantile(h, 0.5), 0.0); // empty

    for (int i = 0; i < 99; ++i)
        h.observe(100.0);
    h.observe(100000.0);

    const double p50 = histogramQuantile(h, 0.50);
    const double p99 = histogramQuantile(h, 0.99);
    const double p100 = histogramQuantile(h, 1.0);
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, 256.0); // within one power-of-two bucket
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p100);
    EXPECT_LE(p100, h.max()); // clamped to the observed maximum
}

} // namespace
} // namespace morphling::service
