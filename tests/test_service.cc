/**
 * @file
 * Tests of the concurrent bootstrap service: flush-on-timeout under
 * light load, deadline-driven flushes, backpressure (fail-fast and
 * drain), per-client result ordering, full-batch assembly, shutdown
 * semantics and typed misuse errors, and batches lowered against their
 * own LUT. All run under the TSan label (ctest -L tsan).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "service/bootstrap_service.h"
#include "tfhe/encoding.h"

namespace morphling::service {
namespace {

using namespace std::chrono_literals;
using tfhe::KeySet;
using tfhe::LweCiphertext;

constexpr std::uint32_t kSpace = 4;

class ServiceFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0x5E41CE);
        keys_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0x600D};

    LweCiphertext
    encrypt(std::uint32_t m)
    {
        return tfhe::encryptPadded(keys(), m, kSpace, rng);
    }

    std::uint32_t
    decrypt(const LweCiphertext &ct)
    {
        return tfhe::decryptPadded(keys(), ct, kSpace);
    }

    /** Wait with a generous timeout so a wedged service fails the
     *  test instead of hanging the suite. */
    static void
    expectReady(std::future<LweCiphertext> &future)
    {
        ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
    }

    static KeySet *keys_;
};

KeySet *ServiceFixture::keys_ = nullptr;

TEST_F(ServiceFixture, FlushOnTimeoutUnderLightLoad)
{
    ServiceConfig config;
    config.superbatchSize = 64; // never fills with 3 requests
    config.maxWait = 20ms;
    config.numWorkers = 1;
    BootstrapService service(keys(), config);
    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 1) % kSpace;
        }));

    std::vector<LweCiphertext> inputs;
    for (std::uint32_t m : {0u, 1u, 2u})
        inputs.push_back(encrypt(m));

    std::vector<std::future<LweCiphertext>> futures;
    for (auto &ct : inputs)
        futures.push_back(service.submit(std::move(ct), lut));

    for (std::size_t i = 0; i < futures.size(); ++i) {
        expectReady(futures[i]);
        EXPECT_EQ(decrypt(futures[i].get()),
                  (static_cast<std::uint32_t>(i) + 1) % kSpace)
            << i;
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_GE(stats.timerFlushes, 1u);
    EXPECT_EQ(stats.fullBatches, 0u);
    EXPECT_EQ(stats.requestLatencyUs.count(), 3u);
    // The flush timer held the batch for maxWait before shipping.
    EXPECT_GE(stats.queueLatencyUs.max(), 10'000.0);
}

TEST_F(ServiceFixture, DeadlineShipsAheadOfFlushTimer)
{
    ServiceConfig config;
    config.superbatchSize = 64;
    config.maxWait = 10s; // the timer alone would stall the test
    config.numWorkers = 1;
    BootstrapService service(keys(), config);
    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return m;
        }));

    auto future = service.submit(encrypt(2), lut,
                                 ServiceClock::now() + 30ms);
    expectReady(future);
    EXPECT_EQ(decrypt(future.get()), 2u);
    EXPECT_GE(service.stats().timerFlushes, 1u);
}

TEST_F(ServiceFixture, BackpressureFailsFastAndDrainCompletes)
{
    ServiceConfig config;
    config.superbatchSize = 64;
    config.maxOutstanding = 4;
    config.maxWait = 10s; // nothing ships until shutdown drains
    config.numWorkers = 1;
    BootstrapService service(keys(), config);
    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (3 * m) % kSpace;
        }));

    std::vector<std::future<LweCiphertext>> futures;
    for (std::uint32_t m = 0; m < 4; ++m) {
        auto future = service.trySubmit(encrypt(m % kSpace), lut);
        ASSERT_TRUE(future.has_value()) << m;
        futures.push_back(std::move(*future));
    }
    // The queue is at maxOutstanding: fail-fast submission refuses.
    EXPECT_FALSE(service.trySubmit(encrypt(1), lut).has_value());
    EXPECT_EQ(service.stats().rejected, 1u);
    EXPECT_EQ(service.outstanding(), 4u);

    service.shutdown();
    EXPECT_TRUE(service.stopped());
    for (std::uint32_t m = 0; m < 4; ++m) {
        expectReady(futures[m]);
        EXPECT_EQ(decrypt(futures[m].get()), (3 * m) % kSpace) << m;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_GE(stats.drainFlushes, 1u);
    EXPECT_EQ(stats.outstanding, 0u);
}

TEST_F(ServiceFixture, ResultOrderMatchesSubmissionOrderPerClient)
{
    ServiceConfig config;
    config.superbatchSize = 8;
    config.maxWait = 5ms;
    config.numWorkers = 2;
    BootstrapService service(keys(), config);
    const LutId inc = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 1) % kSpace;
        }));
    const LutId triple = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (3 * m) % kSpace;
        }));

    // One "client" interleaving two LUTs; its futures, read in
    // submission order, must line up with its requests even though
    // batches are assembled per LUT and executed concurrently.
    constexpr unsigned kCount = 24;
    std::vector<LweCiphertext> inputs;
    for (unsigned i = 0; i < kCount; ++i)
        inputs.push_back(encrypt(i % kSpace));

    std::vector<std::future<LweCiphertext>> futures;
    for (unsigned i = 0; i < kCount; ++i) {
        futures.push_back(service.submit(std::move(inputs[i]),
                                         i % 2 ? triple : inc));
    }

    for (unsigned i = 0; i < kCount; ++i) {
        expectReady(futures[i]);
        const std::uint32_t m = i % kSpace;
        const std::uint32_t expected =
            i % 2 ? (3 * m) % kSpace : (m + 1) % kSpace;
        EXPECT_EQ(decrypt(futures[i].get()), expected) << i;
    }
    EXPECT_EQ(service.stats().completed, kCount);
}

TEST_F(ServiceFixture, FullBatchesAssembleWithoutTimer)
{
    ServiceConfig config;
    config.superbatchSize = 4;
    config.maxWait = 10s;
    config.numWorkers = 1;
    BootstrapService service(keys(), config);
    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return m;
        }));

    std::vector<LweCiphertext> inputs;
    for (unsigned i = 0; i < 8; ++i)
        inputs.push_back(encrypt(i % kSpace));
    std::vector<std::future<LweCiphertext>> futures;
    for (auto &ct : inputs)
        futures.push_back(service.submit(std::move(ct), lut));

    for (unsigned i = 0; i < 8; ++i) {
        expectReady(futures[i]);
        EXPECT_EQ(decrypt(futures[i].get()), i % kSpace) << i;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.fullBatches, 2u);
    EXPECT_EQ(stats.timerFlushes, 0u);
    EXPECT_EQ(stats.occupancy.mean(), 4.0);
    EXPECT_EQ(stats.meanOccupancy(config.superbatchSize), 1.0);
}

TEST(ServiceKeyLifetime, ServesAfterTheSourceKeysAreDestroyed)
{
    // Key copies share storage: a service built from a temporary
    // evaluation half must keep the keys alive itself once every other
    // owner is gone (a use-after-free here is what the asan-ubsan leg
    // would report).
    Rng rng(0x11FE);
    auto source = std::make_unique<KeySet>(
        KeySet::generate(tfhe::paramsTest(), rng));
    const tfhe::LweKey secret = source->lweKey;
    std::vector<LweCiphertext> inputs;
    for (std::uint32_t i = 0; i < 8; ++i)
        inputs.push_back(tfhe::encryptPadded(*source, i % kSpace, kSpace, rng));

    ServiceConfig config;
    config.superbatchSize = 8;
    config.maxWait = 10s;
    config.numWorkers = 2;
    BootstrapService service(tfhe::EvaluationKeys::fromKeySet(*source),
                             config);
    source.reset();

    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 3) % kSpace;
        }));
    std::vector<std::future<LweCiphertext>> futures;
    for (auto &ct : inputs)
        futures.push_back(service.submit(std::move(ct), lut));
    for (std::uint32_t i = 0; i < 8; ++i) {
        ASSERT_EQ(futures[i].wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::lweDecrypt(secret, futures[i].get(), 2 * kSpace),
                  (i % kSpace + 3) % kSpace)
            << i;
    }
    EXPECT_EQ(service.stats().fullBatches, 1u);
}

TEST_F(ServiceFixture, ShutdownDrainsAllAcceptedRequests)
{
    ServiceConfig config;
    config.superbatchSize = 64;
    config.maxWait = 10s;
    config.numWorkers = 2;
    BootstrapService service(keys(), config);
    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 2) % kSpace;
        }));

    std::vector<std::future<LweCiphertext>> futures;
    for (std::uint32_t i = 0; i < 10; ++i)
        futures.push_back(service.submit(encrypt(i % kSpace), lut));

    service.shutdown();
    EXPECT_TRUE(service.stopped());
    EXPECT_EQ(service.outstanding(), 0u);
    // Every accepted request completed during the drain: the futures
    // are already ready, no waiting required.
    for (std::uint32_t i = 0; i < 10; ++i) {
        ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready)
            << i;
        EXPECT_EQ(decrypt(futures[i].get()),
                  (i % kSpace + 2) % kSpace)
            << i;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, 10u);
    EXPECT_EQ(stats.completed, 10u);

    service.shutdown(); // idempotent
    EXPECT_TRUE(service.stopped());
}

TEST_F(ServiceFixture, MisuseThrowsTypedErrors)
{
    ServiceConfig config;
    config.superbatchSize = 64;
    config.maxOutstanding = 1;
    config.maxWait = 10s; // nothing ships until shutdown drains
    config.numWorkers = 1;
    BootstrapService service(keys(), config);
    const auto lut_values = tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
        return m;
    });
    const LutId lut = service.registerLut(lut_values);

    // A circuit needs one input ciphertext per circuit input.
    circuit::Circuit c;
    c.markOutput(c.gate(tfhe::BoolGate::And, c.bitInput(), c.bitInput()));
    EXPECT_THROW((void)service.submitCircuit(c, {encrypt(0)}),
                 std::invalid_argument);

    // The lane is full, so this submit blocks until shutdown wakes it.
    auto first = service.submit(encrypt(1), lut);
    auto blocked = std::async(std::launch::async, [&] {
        return service.submit(encrypt(2), lut);
    });
    std::this_thread::sleep_for(50ms);
    service.shutdown();
    EXPECT_THROW((void)blocked.get(), std::logic_error);
    expectReady(first);
    EXPECT_EQ(decrypt(first.get()), 1u);

    EXPECT_THROW((void)service.submit(encrypt(0), lut), std::logic_error);
    EXPECT_THROW((void)service.submitCircuit(c, {encrypt(0), encrypt(1)}),
                 std::logic_error);
    EXPECT_THROW((void)service.registerLut(lut_values), std::logic_error);
    EXPECT_EQ(service.stats().accepted, 1u);
}

TEST_F(ServiceFixture, CosimBackendServesCorrectResults)
{
    // The deep self-check path: every superbatch runs through the
    // lockstep co-simulator (functional + cycle model, cross-checked,
    // outputs verified against the tfhe reference). Results must be
    // indistinguishable from the functional path.
    ServiceConfig config;
    config.superbatchSize = 8;
    config.numWorkers = 1;
    config.backend = exec::BackendKind::kCosim;
    BootstrapService service(keys(), config);
    const LutId lut = service.registerLut(tfhe::makePaddedLut(
        kSpace, [](std::uint32_t m) { return (m + 1) % kSpace; }));

    std::vector<std::future<LweCiphertext>> futures;
    for (std::uint32_t i = 0; i < 8; ++i)
        futures.push_back(service.submit(encrypt(i % kSpace), lut));
    for (std::uint32_t i = 0; i < 8; ++i) {
        expectReady(futures[i]);
        EXPECT_EQ(decrypt(futures[i].get()),
                  (i % kSpace + 1) % kSpace)
            << i;
    }
}

TEST_F(ServiceFixture, EveryBatchLowersAgainstItsOwnLut)
{
    // Each batch is lowered where it runs, against its own LUT. The
    // requests alternate between two LUTs, 6 and 5 of them over
    // batches of 4, so each LUT ships a full batch and a partial one;
    // a batch lowered against the other table would decrypt wrong.
    ServiceConfig config;
    config.superbatchSize = 4;
    config.maxWait = 20ms;
    config.numWorkers = 2;
    BootstrapService service(keys(), config);
    const LutId luts[2] = {
        service.registerLut(tfhe::makePaddedLut(
            kSpace, [](std::uint32_t m) { return m; })),
        service.registerLut(tfhe::makePaddedLut(
            kSpace, [](std::uint32_t m) { return (m + 1) % kSpace; }))};

    std::vector<std::future<LweCiphertext>> futures;
    for (std::uint32_t i = 0; i < 11; ++i)
        futures.push_back(service.submit(encrypt(i % kSpace), luts[i % 2]));
    for (std::uint32_t i = 0; i < 11; ++i) {
        expectReady(futures[i]);
        EXPECT_EQ(decrypt(futures[i].get()), (i % kSpace + i % 2) % kSpace)
            << i;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 11u);
    EXPECT_GE(stats.superbatches, 4u);
}

TEST_F(ServiceFixture, GroupParallelBatchEndToEnd)
{
    // batch.threads = 4 runs the four groups of each full 64-LWE
    // superbatch on four threads inside the worker; outputs stay
    // byte-equal to the library's.
    ServiceConfig config;
    config.numWorkers = 1;
    config.maxWait = 20ms;
    config.batch.threads = 4;
    BootstrapService service(keys(), config);
    const auto table = tfhe::makePaddedLut(
        kSpace, [](std::uint32_t m) { return (m + 1) % kSpace; });
    const LutId lut = service.registerLut(table);

    std::vector<LweCiphertext> inputs;
    std::vector<std::future<LweCiphertext>> futures;
    for (std::uint32_t i = 0; i < 128; ++i) {
        inputs.push_back(encrypt(i % kSpace));
        futures.push_back(service.submit(inputs.back(), lut));
    }
    const auto reference = tfhe::batchBootstrap(keys(), inputs, table);
    for (std::uint32_t i = 0; i < 128; ++i) {
        expectReady(futures[i]);
        const LweCiphertext out = futures[i].get();
        EXPECT_EQ(out.raw(), reference[i].raw()) << i;
        EXPECT_EQ(decrypt(out), (i % kSpace + 1) % kSpace) << i;
    }
    EXPECT_GE(service.stats().fullBatches, 1u);
}

TEST(ServiceConfigValidate, AcceptsRunnableConfigs)
{
    EXPECT_EQ(ServiceConfig{}.validate(), std::nullopt);
    ServiceConfig group_parallel;
    group_parallel.batch.threads = 4;
    EXPECT_EQ(group_parallel.validate(), std::nullopt);
    ServiceConfig cosim;
    cosim.backend = exec::BackendKind::kCosim;
    EXPECT_EQ(cosim.validate(), std::nullopt);
}

TEST(ServiceConfigValidate, ReportsEachMisconfiguration)
{
    ServiceConfig empty_batch;
    empty_batch.superbatchSize = 0;
    ASSERT_TRUE(empty_batch.validate().has_value());

    ServiceConfig no_capacity;
    no_capacity.maxOutstanding = 0;
    ASSERT_TRUE(no_capacity.validate().has_value());

    ServiceConfig timing;
    timing.backend = exec::BackendKind::kTiming;
    const auto error = timing.validate();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("kTiming"), std::string::npos);
}

TEST(ServiceConfigValidate, ConstructorThrowsInsteadOfAborting)
{
    // A misconfigured service must be reportable by the caller, not a
    // process abort (the old behaviour was fatal()).
    Rng rng(0x7E57);
    const KeySet keys = KeySet::generate(tfhe::paramsTest(), rng);
    ServiceConfig config;
    config.backend = exec::BackendKind::kTiming;
    try {
        BootstrapService service(keys, config);
        FAIL() << "construction accepted a kTiming backend";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("kTiming"),
                  std::string::npos);
    }
}

TEST(ServiceConfigValidate, RejectsEachDegenerateCombination)
{
    ServiceConfig negative_wait;
    negative_wait.maxWait = std::chrono::microseconds(-1);
    auto error = negative_wait.validate();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("maxWait"), std::string::npos);

    ServiceConfig bad_noise_gate;
    bad_noise_gate.batch.checkNoise = true;
    bad_noise_gate.batch.minSlotSigmas = 0;
    error = bad_noise_gate.validate();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("minSlotSigmas"), std::string::npos);
}

TEST_F(ServiceFixture, RejectsUnusableLutsAndUnknownLutIds)
{
    ServiceConfig config;
    config.superbatchSize = 4;
    config.numWorkers = 1;
    config.maxWait = 2ms;
    BootstrapService service(keys(), config);
    const unsigned n = keys().params.polyDegree;

    // An empty table, and one whose padded test polynomial needs more
    // than N coefficients, are refused at registration — not by a
    // worker panicking on their first batch.
    EXPECT_THROW(service.registerLut({}), std::invalid_argument);
    EXPECT_THROW(service.registerLut(std::vector<tfhe::Torus32>(n)),
                 std::invalid_argument);
    EXPECT_THROW(
        service.registerLut(std::vector<tfhe::Torus32>(n / 2 + 1)),
        std::invalid_argument);

    // A refused table takes no id; the largest table that fits is
    // accepted.
    const LutId lut = service.registerLut(
        tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 1) % kSpace;
        }));
    EXPECT_EQ(lut, 0u);
    EXPECT_NO_THROW(
        service.registerLut(std::vector<tfhe::Torus32>(n / 2)));

    EXPECT_THROW((void)service.submit(encrypt(1), lut + 2),
                 std::out_of_range);
    EXPECT_THROW((void)service.trySubmit(encrypt(1), lut + 2),
                 std::out_of_range);

    auto future = service.submit(encrypt(1), lut);
    expectReady(future);
    EXPECT_EQ(decrypt(future.get()), 2u);
    EXPECT_EQ(service.stats().accepted, 1u);
}

} // namespace
} // namespace morphling::service
