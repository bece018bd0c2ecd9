/**
 * @file
 * Tests of the circuit submission path through BootstrapService:
 * whole encrypted programs via submitCircuit at one and four threads
 * per batch, bit-identity against gate-by-gate evaluation,
 * mixed single-LUT + circuit workloads on one pool, and the
 * configuration validation surface.
 */

#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "service/bootstrap_service.h"
#include "tfhe/params.h"

namespace morphling::service {
namespace {

using circuit::Circuit;
using circuit::Wire;
using tfhe::KeySet;
using tfhe::LweCiphertext;

class CircuitServiceFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xC15E);
        keys_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0x5E4F1CE};

    static Circuit
    adder(unsigned bits)
    {
        Circuit c;
        std::vector<Wire> a, b, sum;
        for (unsigned i = 0; i < bits; ++i)
            a.push_back(c.bitInput());
        for (unsigned i = 0; i < bits; ++i)
            b.push_back(c.bitInput());
        const auto carry = circuit::buildRippleAdder(c, a, b, sum);
        for (auto w : sum)
            c.markOutput(w);
        c.markOutput(carry);
        return c;
    }

    std::vector<LweCiphertext>
    adderInputs(unsigned x, unsigned y, unsigned bits)
    {
        std::vector<LweCiphertext> in;
        for (unsigned i = 0; i < bits; ++i)
            in.push_back(tfhe::encryptBit(keys(), (x >> i) & 1, rng));
        for (unsigned i = 0; i < bits; ++i)
            in.push_back(tfhe::encryptBit(keys(), (y >> i) & 1, rng));
        return in;
    }

    unsigned
    decryptValue(const std::vector<LweCiphertext> &bits)
    {
        unsigned v = 0;
        for (std::size_t i = 0; i < bits.size(); ++i) {
            v |= static_cast<unsigned>(
                     tfhe::decryptBit(keys(), bits[i]))
                 << i;
        }
        return v;
    }

    static KeySet *keys_;
};

KeySet *CircuitServiceFixture::keys_ = nullptr;

/** An 8-bit encrypted adder submitted whole runs end-to-end and is
 *  bit-identical to direct gate-by-gate encrypted evaluation — on the
 *  functional backend with one and four threads per batch, and under
 *  kCosim. */
TEST_F(CircuitServiceFixture, Adder8BitIdenticalAcrossBackends)
{
    const auto c = adder(8);
    const unsigned x = 173, y = 99;
    const auto inputs = adderInputs(x, y, 8);
    const auto reference = c.evaluateEncrypted(keys(), inputs);

    const std::pair<exec::BackendKind, unsigned> runs[] = {
        {exec::BackendKind::kFunctional, 1},
        {exec::BackendKind::kFunctional, 4},
        {exec::BackendKind::kCosim, 1}};
    for (const auto &[kind, threads] : runs) {
        ServiceConfig config;
        config.backend = kind;
        config.batch.threads = threads;
        config.numWorkers = 2;
        BootstrapService service(keys(), config);

        auto outputs = service.submitCircuit(c, inputs).get();
        ASSERT_EQ(outputs.size(), reference.size());
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            EXPECT_EQ(outputs[i].raw(), reference[i].raw())
                << exec::backendKindName(kind) << " at " << threads
                << " threads, output " << i;
        }
        EXPECT_EQ(decryptValue(outputs), x + y);

        const auto stats = service.stats();
        EXPECT_EQ(stats.circuits, 1u);
        EXPECT_EQ(stats.circuitsCompleted, 1u);
        EXPECT_EQ(stats.circuitBootstraps, c.bootstrapCount());
        EXPECT_EQ(stats.circuitLatencyUs.count(), 1u);
    }
}

TEST_F(CircuitServiceFixture, ManyCircuitsInterleaved)
{
    const auto c = adder(4);
    ServiceConfig config;
    config.numWorkers = 3;
    BootstrapService service(keys(), config);

    std::vector<std::future<std::vector<LweCiphertext>>> futures;
    std::vector<unsigned> expect;
    for (unsigned r = 0; r < 6; ++r) {
        const unsigned x = (3 * r + 1) % 16, y = (7 * r + 5) % 16;
        expect.push_back(x + y);
        futures.push_back(
            service.submitCircuit(c, adderInputs(x, y, 4)));
    }
    for (std::size_t r = 0; r < futures.size(); ++r)
        EXPECT_EQ(decryptValue(futures[r].get()), expect[r]) << r;

    const auto stats = service.stats();
    EXPECT_EQ(stats.circuits, 6u);
    EXPECT_EQ(stats.circuitsCompleted, 6u);
    EXPECT_EQ(service.outstanding(), 0u);
}

TEST_F(CircuitServiceFixture, MixedSingleLutAndCircuitTraffic)
{
    // Single-LUT requests and whole circuits share the pool; both
    // families complete correctly.
    ServiceConfig config;
    config.numWorkers = 2;
    config.maxWait = std::chrono::microseconds(200);
    BootstrapService service(keys(), config);

    const auto lut = service.registerLut(
        tfhe::makePaddedLut(4, [](std::uint32_t m) {
            return (m + 1) % 4;
        }));

    const auto c = adder(4);
    auto circuit_future =
        service.submitCircuit(c, adderInputs(6, 9, 4));

    std::vector<std::future<LweCiphertext>> lut_futures;
    for (std::uint32_t m = 0; m < 4; ++m) {
        lut_futures.push_back(service.submit(
            tfhe::encryptPadded(keys(), m, 4, rng), lut));
    }

    EXPECT_EQ(decryptValue(circuit_future.get()), 15u);
    for (std::uint32_t m = 0; m < 4; ++m) {
        EXPECT_EQ(tfhe::decryptPadded(keys(), lut_futures[m].get(), 4),
                  (m + 1) % 4);
    }

    const auto stats = service.stats();
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.circuits, 1u);
}

TEST_F(CircuitServiceFixture, CircuitsDrainOnShutdown)
{
    const auto c = adder(4);
    ServiceConfig config;
    config.numWorkers = 1;
    auto *service = new BootstrapService(keys(), config);
    auto future = service->submitCircuit(c, adderInputs(2, 3, 4));
    delete service; // destructor shuts down: accepted work completes
    EXPECT_EQ(decryptValue(future.get()), 5u);
}

TEST_F(CircuitServiceFixture, ValidateCatchesBadConfigs)
{
    ServiceConfig ok;
    EXPECT_FALSE(ok.validate().has_value());

    ServiceConfig no_batch;
    no_batch.superbatchSize = 0;
    EXPECT_TRUE(no_batch.validate().has_value());

    ServiceConfig timing;
    timing.backend = exec::BackendKind::kTiming;
    EXPECT_TRUE(timing.validate().has_value());
    EXPECT_THROW(BootstrapService(keys(), timing),
                 std::invalid_argument);
}

} // namespace
} // namespace morphling::service
