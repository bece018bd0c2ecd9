/**
 * @file
 * Tests of circuit lowering and the CircuitExecutor: lowering
 * structure (level/step grouping, bootstrap conservation), the
 * executor's bit-identity against gate-by-gate encrypted evaluation
 * at every batch thread count, and the cross-level retirement log
 * contract.
 */

#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/circuit_executor.h"
#include "exec/functional_backend.h"
#include "tfhe/params.h"

namespace morphling::exec {
namespace {

using circuit::Circuit;
using circuit::Wire;
using tfhe::BoolGate;
using tfhe::KeySet;
using tfhe::LweCiphertext;

class CircuitExecFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xC1EC);
        keys_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0xE4EC5};

    std::vector<LweCiphertext>
    encryptBits(unsigned value, unsigned bits)
    {
        std::vector<LweCiphertext> out;
        for (unsigned i = 0; i < bits; ++i)
            out.push_back(
                tfhe::encryptBit(keys(), (value >> i) & 1, rng));
        return out;
    }

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

    /** Bitwise identity of two ciphertext vectors. */
    static void
    expectIdentical(const std::vector<LweCiphertext> &got,
                    const std::vector<LweCiphertext> &want)
    {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].raw(), want[i].raw()) << "output " << i;
    }

    static KeySet *keys_;
};

KeySet *CircuitExecFixture::keys_ = nullptr;

TEST_F(CircuitExecFixture, LoweringStructure)
{
    // Two gates on level 1, one gate and one LUT node on level 2:
    // level 2 must split into two steps (batches never mix LUTs).
    Circuit c;
    const auto a = c.bitInput();
    const auto b = c.bitInput();
    const auto word = c.wordInput(4);
    const auto table = c.registerLut(4, {3, 2, 1, 0});
    const auto x = c.gate(BoolGate::Xor, a, b);
    const auto y = c.gate(BoolGate::And, a, b);
    c.markOutput(c.gate(BoolGate::Or, x, y));
    const auto first = c.applyLut(table, word);
    c.markOutput(c.applyLut(table, first));

    compiler::SwScheduler scheduler(keys().params);
    const auto lowered = circuit::lower(c, scheduler);
    EXPECT_EQ(lowered.totalBootstraps, c.bootstrapCount());
    ASSERT_EQ(lowered.numLevels(), 2u);
    // Level 1: the two gates share the sign LUT, the first applyLut is
    // its own step.
    ASSERT_EQ(lowered.levels[0].size(), 2u);
    EXPECT_TRUE(lowered.levels[0][0].signLut);
    EXPECT_EQ(lowered.levels[0][0].nodes.size(), 2u); // x and y
    EXPECT_FALSE(lowered.levels[0][1].signLut);
    EXPECT_EQ(lowered.levels[0][1].nodes.size(), 1u); // first applyLut
    // Level 2: one gate step + one LUT step.
    ASSERT_EQ(lowered.levels[1].size(), 2u);
    for (const auto &level : lowered.levels) {
        for (const auto &step : level) {
            EXPECT_GT(step.program.size(), 0u);
            EXPECT_FALSE(step.lutEntries.empty());
        }
    }
}

TEST_F(CircuitExecFixture, AdderMatchesGateByGateBitIdentical)
{
    const auto c = adder(4);
    const unsigned x = 13, y = 6;
    auto inputs = encryptBits(x, 4);
    for (const auto &ct : encryptBits(y, 4))
        inputs.push_back(ct);

    const auto reference = c.evaluateEncrypted(keys(), inputs);

    FunctionalBackend backend(keys());
    CircuitExecutor executor(keys().params, backend);
    const auto result = executor.run(c, inputs);
    expectIdentical(result.outputs, reference);

    // And the plaintext answer is right.
    unsigned sum = 0;
    for (unsigned i = 0; i < 5; ++i) {
        sum |= static_cast<unsigned>(
                   tfhe::decryptBit(keys(), result.outputs[i]))
               << i;
    }
    EXPECT_EQ(sum, x + y);
}

TEST_F(CircuitExecFixture, ComparatorMatchesGateByGateBitIdentical)
{
    Circuit c;
    std::vector<Wire> a, b;
    for (int i = 0; i < 4; ++i)
        a.push_back(c.bitInput());
    for (int i = 0; i < 4; ++i)
        b.push_back(c.bitInput());
    c.markOutput(circuit::buildGreaterEqual(c, a, b));
    c.markOutput(circuit::buildEqual(c, a, b));

    auto inputs = encryptBits(9, 4);
    for (const auto &ct : encryptBits(12, 4))
        inputs.push_back(ct);

    const auto reference = c.evaluateEncrypted(keys(), inputs);
    FunctionalBackend backend(keys());
    CircuitExecutor executor(keys().params, backend);
    expectIdentical(executor.run(c, inputs).outputs, reference);
}

TEST_F(CircuitExecFixture, LutWordCircuitMatchesGateByGate)
{
    // Chained 4-value LUT nodes exercise the staircase (non-sign) job
    // path through the executor.
    Circuit c;
    const auto in = c.wordInput(4);
    const auto tbl = c.registerLut(4, {1, 2, 3, 0});
    c.markOutput(c.applyLut(tbl, c.applyLut(tbl, in)));

    for (std::uint32_t m = 0; m < 4; ++m) {
        const std::vector<LweCiphertext> inputs = {
            tfhe::encryptPadded(keys(), m, 4, rng)};
        const auto reference = c.evaluateEncrypted(keys(), inputs);
        FunctionalBackend backend(keys());
        CircuitExecutor executor(keys().params, backend);
        const auto result = executor.run(c, inputs);
        expectIdentical(result.outputs, reference);
        EXPECT_EQ(tfhe::decryptPadded(keys(), result.outputs[0], 4),
                  (m + 2) % 4);
    }
}

TEST_F(CircuitExecFixture, GroupParallelMatchesSequentialBitIdentical)
{
    // Four independent 8-bit adders: the first level's gates fill
    // every group of its superbatch, so the parallel runs fan out.
    Circuit c;
    std::vector<LweCiphertext> inputs;
    for (unsigned k = 0; k < 4; ++k) {
        std::vector<Wire> a, b, sum;
        for (unsigned i = 0; i < 8; ++i)
            a.push_back(c.bitInput());
        for (unsigned i = 0; i < 8; ++i)
            b.push_back(c.bitInput());
        const auto carry = circuit::buildRippleAdder(c, a, b, sum);
        for (auto w : sum)
            c.markOutput(w);
        c.markOutput(carry);
        for (const auto &ct : encryptBits(200 - 37 * k, 8))
            inputs.push_back(ct);
        for (const auto &ct : encryptBits(88 + 41 * k, 8))
            inputs.push_back(ct);
    }
    const auto lowered =
        circuit::lower(c, compiler::SwScheduler(keys().params));
    unsigned widest = 0;
    for (const auto &level : lowered.levels) {
        for (const auto &step : level)
            widest = std::max(widest, step.program.numGroups());
    }
    ASSERT_EQ(widest, 4u);

    FunctionalBackend functional(keys());
    CircuitExecutor sequential(keys().params, functional);
    const auto base = sequential.run(lowered, inputs);

    // Every thread count above 1 takes the group-parallel path, which
    // retires each barrier segment's groups in ascending id.
    std::vector<CircuitRetirement> parallel_log;
    for (unsigned threads : {2u, 4u}) {
        tfhe::BatchOptions options;
        options.threads = threads;
        CircuitExecutor parallel(keys().params, functional, options);
        const auto result = parallel.run(lowered, inputs);
        expectIdentical(result.outputs, base.outputs);
        if (parallel_log.empty()) {
            parallel_log = result.retired;
            continue;
        }
        ASSERT_EQ(result.retired.size(), parallel_log.size());
        for (std::size_t i = 0; i < parallel_log.size(); ++i) {
            EXPECT_EQ(result.retired[i].level, parallel_log[i].level);
            EXPECT_EQ(result.retired[i].step, parallel_log[i].step);
            EXPECT_EQ(result.retired[i].inst.index,
                      parallel_log[i].inst.index)
                << "retirement " << i << " at " << threads
                << " threads";
        }
    }
}

TEST_F(CircuitExecFixture, RetirementLogSpansLevels)
{
    const auto c = adder(4);
    auto inputs = encryptBits(5, 4);
    for (const auto &ct : encryptBits(10, 4))
        inputs.push_back(ct);

    FunctionalBackend backend(keys());
    CircuitExecutor executor(keys().params, backend);
    const auto result = executor.run(c, inputs);

    // Per-level stats cover every bootstrap exactly once.
    std::uint64_t from_levels = 0;
    for (const auto &level : result.levels)
        from_levels += level.bootstraps;
    EXPECT_EQ(from_levels, c.bootstrapCount());
    EXPECT_EQ(result.totalBootstraps, c.bootstrapCount());
    EXPECT_EQ(result.levels.size(), c.bootstrapDepth());

    // The retirement log spans multiple levels with a globally
    // monotone sequence and non-decreasing level tags.
    ASSERT_FALSE(result.retired.empty());
    unsigned max_level = 0;
    std::uint64_t expected_seq = 0;
    for (const auto &entry : result.retired) {
        EXPECT_EQ(entry.inst.seq, expected_seq++);
        EXPECT_GE(entry.level, max_level);
        max_level = std::max(max_level, entry.level);
    }
    EXPECT_EQ(max_level, c.bootstrapDepth());
}

TEST_F(CircuitExecFixture, LinearOnlyCircuitNeedsNoBackendWork)
{
    // Inputs, constants and NOT run without a single bootstrap.
    Circuit c;
    const auto a = c.bitInput();
    c.markOutput(c.invert(a));
    c.markOutput(c.constant(true));

    FunctionalBackend backend(keys());
    CircuitExecutor executor(keys().params, backend);
    const auto result =
        executor.run(c, {tfhe::encryptBit(keys(), false, rng)});
    EXPECT_EQ(result.totalBootstraps, 0u);
    EXPECT_TRUE(result.retired.empty());
    EXPECT_TRUE(tfhe::decryptBit(keys(), result.outputs[0]));
    EXPECT_TRUE(tfhe::decryptBit(keys(), result.outputs[1]));

    // One input ciphertext per circuit input, or a typed error.
    EXPECT_THROW((void)executor.run(c, {}), std::invalid_argument);
}

} // namespace
} // namespace morphling::exec
