/**
 * @file
 * Tests of exec::ShardedBackend over private accelerators: the merged
 * retirement order equals FunctionalBackend's one retirement order for
 * N in {1, 2, 4} shards (the order of its 1-, 2- and 4-thread runs,
 * whose outputs are byte-equal), the retirement contract over the
 * merged log, makespan semantics, the empty program, and the
 * co-simulator's sharded-reference checks.
 */

#include <map>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "arch/config.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
#include "exec/sharded_backend.h"
#include "exec/timing_backend.h"
#include "tfhe/batch.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::exec {
namespace {

class ShardedFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0x5AAD);
        keys_ = new tfhe::KeySet(
            tfhe::KeySet::generate(tfhe::paramsTest(), rng));
        evalKeys_ = new tfhe::EvaluationKeys(
            tfhe::EvaluationKeys::fromKeySet(*keys_));
    }
    static void
    TearDownTestSuite()
    {
        delete evalKeys_;
        delete keys_;
        keys_ = nullptr;
        evalKeys_ = nullptr;
    }

    const tfhe::KeySet &keys() { return *keys_; }
    const tfhe::EvaluationKeys &evalKeys() { return *evalKeys_; }

    Rng rng{0x5AAD5};

    std::vector<tfhe::LweCiphertext>
    encryptBatch(std::size_t count)
    {
        std::vector<tfhe::LweCiphertext> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(tfhe::encryptPadded(
                keys(), static_cast<std::uint32_t>(i % 4), 4, rng));
        }
        return out;
    }

    /** Exactly-once coverage + per-group program order, with seq the
     *  retirement position. */
    static void
    checkRetirementContract(const compiler::Program &program,
                            const std::vector<RetiredInstruction> &log)
    {
        ASSERT_EQ(log.size(), program.size());
        std::set<std::size_t> seen;
        std::map<unsigned, std::size_t> last_index;
        for (std::size_t i = 0; i < log.size(); ++i) {
            const auto &r = log[i];
            EXPECT_EQ(r.seq, i) << "seq is the retirement position";
            EXPECT_TRUE(seen.insert(r.index).second)
                << "instruction " << r.index << " retired twice";
            EXPECT_EQ(r.inst, program.at(r.index));
            const unsigned g = r.inst.group;
            if (last_index.count(g)) {
                EXPECT_LT(last_index[g], r.index)
                    << "group " << g << " retired out of program order";
            }
            last_index[g] = r.index;
        }
    }

    /** Same retired instructions, in the same order. */
    static void
    expectSameOrder(const std::vector<RetiredInstruction> &a,
                    const std::vector<RetiredInstruction> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].index, b[i].index)
                << "retirement " << i << " diverges";
            EXPECT_EQ(a[i].inst, b[i].inst);
        }
    }

    static tfhe::KeySet *keys_;
    static tfhe::EvaluationKeys *evalKeys_;
};

tfhe::KeySet *ShardedFixture::keys_ = nullptr;
tfhe::EvaluationKeys *ShardedFixture::evalKeys_ = nullptr;

TEST_F(ShardedFixture, SliceGroupsPartitionsTheProgram)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);
    ASSERT_EQ(program.numGroups(), 4u);

    const auto even = program.sliceGroups("even", {0, 2});
    const auto odd = program.sliceGroups("odd", {1, 3});
    EXPECT_EQ(even.program.size() + odd.program.size(), program.size());
    EXPECT_EQ(even.program.numGroups(), 2u);
    EXPECT_EQ(odd.program.numGroups(), 2u);

    // Slice instructions are the source instructions in source order,
    // with only the group id remapped.
    for (std::size_t j = 0; j < even.program.size(); ++j) {
        const auto &src = program.at(even.globalIndex[j]);
        const auto &dst = even.program.at(j);
        EXPECT_EQ(dst.op, src.op);
        EXPECT_EQ(dst.count, src.count);
        EXPECT_EQ(dst.operand, src.operand);
        EXPECT_EQ(src.group, even.groups[dst.group]);
        if (j > 0) {
            EXPECT_LT(even.globalIndex[j - 1], even.globalIndex[j]);
        }
    }

    // Ids beyond numGroups() yield empty streams (round-robin shard
    // assignment over more shards than groups).
    const auto empty = program.sliceGroups("empty", {7});
    EXPECT_EQ(empty.program.size(), 0u);
}

TEST_F(ShardedFixture, MatchesFunctionalBitExactForN124)
{
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);

    FunctionalBackend functional(evalKeys());
    const auto sequential = functional.run(program, Job::batch(inputs, lut));
    ASSERT_TRUE(sequential.hasOutputs);
    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(sequential.outputs[i].raw(), reference[i].raw());

    // The run is byte-equal at every thread count and retires in one
    // order: the 1-thread log.
    checkRetirementContract(program, sequential.retired);
    for (const unsigned threads : {2u, 4u}) {
        tfhe::BatchOptions options;
        options.threads = threads;
        const auto result =
            functional.run(program, Job::batch(inputs, lut, options));
        ASSERT_TRUE(result.hasOutputs) << threads << " threads";
        for (std::size_t i = 0; i < result.outputs.size(); ++i) {
            EXPECT_EQ(result.outputs[i].raw(),
                      sequential.outputs[i].raw())
                << "slot " << i << " at " << threads << " threads";
        }
        expectSameOrder(result.retired, sequential.retired);
    }

    // ShardedBackend's merge reproduces that order for every shard
    // count.
    for (const unsigned n : {1u, 2u, 4u}) {
        auto sharded = ShardedBackend::timing(
            arch::ArchConfig::morphlingDefault(), keys().params, n);
        const auto result = sharded.run(program, Job{});
        EXPECT_FALSE(result.hasOutputs);
        expectSameOrder(result.retired, sequential.retired);
        checkRetirementContract(program, result.retired);
    }
}

TEST_F(ShardedFixture, MultiStageBarrierProgramMerges)
{
    compiler::Workload w;
    w.name = "two-stage";
    w.stages.push_back({16, 300});
    w.stages.push_back({16, 0});
    const auto program =
        compiler::SwScheduler(keys().params).schedule(w);
    const auto inputs = encryptBatch(32);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return 3 - m;
    });

    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    Job par_job = job;
    par_job.options.threads = 4;
    FunctionalBackend functional(evalKeys());
    const auto sequential = functional.run(program, job);
    const auto reference = functional.run(program, par_job);
    for (std::size_t i = 0; i < reference.outputs.size(); ++i)
        EXPECT_EQ(reference.outputs[i].raw(), sequential.outputs[i].raw());

    auto sharded = ShardedBackend::timing(
        arch::ArchConfig::morphlingDefault(), keys().params, 2);
    const auto result = sharded.run(program, job);
    expectSameOrder(result.retired, reference.retired);
}

TEST_F(ShardedFixture, MoreShardsThanGroupsStillCovers)
{
    // 8 bootstraps schedule into fewer groups than shards (or
    // threads); the extra shards run empty slices, the extra threads
    // idle, and both still cover everything.
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);
    const auto inputs = encryptBatch(8);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });

    auto sharded = ShardedBackend::timing(
        arch::ArchConfig::morphlingDefault(), keys().params, 6);
    const auto timed = sharded.run(program, Job{});
    ASSERT_TRUE(timed.hasReport);
    EXPECT_EQ(timed.report.bootstraps, 8u);
    checkRetirementContract(program, timed.retired);

    tfhe::BatchOptions options;
    options.threads = 6;
    FunctionalBackend functional(evalKeys());
    const auto result =
        functional.run(program, Job::batch(inputs, lut, options));
    ASSERT_TRUE(result.hasOutputs);
    checkRetirementContract(program, result.retired);
    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference[i].raw());
}

TEST_F(ShardedFixture, EmptyProgramRetiresNothing)
{
    // Both shards get empty slices; each runs its accelerator on an
    // empty program, which reports nothing.
    const compiler::Program empty("empty");
    auto sharded = ShardedBackend::timing(
        arch::ArchConfig::morphlingDefault(), keys().params, 2);
    const auto result = sharded.run(empty, Job{});
    EXPECT_FALSE(result.hasReport);
    EXPECT_TRUE(result.retired.empty());
    EXPECT_EQ(sharded.makespan(), 0u);
    ASSERT_EQ(sharded.shardStats().size(), 2u);
    for (const auto &st : sharded.shardStats()) {
        EXPECT_FALSE(st.hasReport);
        EXPECT_EQ(st.instructions, 0u);
    }
}

TEST_F(ShardedFixture, ZeroShardsThrow)
{
    const auto config = arch::ArchConfig::morphlingDefault();
    EXPECT_THROW(ShardedBackend::timing(config, keys().params, 0),
                 std::invalid_argument);
    EXPECT_THROW(ShardedBackend::fleetTiming(config, keys().params, 0),
                 std::invalid_argument);
}

TEST_F(ShardedFixture, ShardStatsDescribeThePartition)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);

    auto sharded = ShardedBackend::timing(
        arch::ArchConfig::morphlingDefault(), keys().params, 4);
    (void)sharded.run(program, Job{});
    ASSERT_EQ(sharded.shardStats().size(), 4u);
    std::size_t instructions = 0;
    std::uint64_t rotations = 0;
    std::set<unsigned> owned;
    for (const auto &st : sharded.shardStats()) {
        instructions += st.instructions;
        rotations += st.blindRotations;
        for (const unsigned g : st.groups)
            EXPECT_TRUE(owned.insert(g).second)
                << "group " << g << " owned twice";
        EXPECT_TRUE(st.hasReport);
        EXPECT_GT(st.cycles, 0u);
    }
    EXPECT_EQ(instructions, program.size());
    EXPECT_EQ(rotations, program.totalBlindRotations());
}

TEST_F(ShardedFixture, TimingShardsReportMakespan)
{
    const auto &params = tfhe::paramsSetI();
    const auto cfg = arch::ArchConfig::morphlingDefault();
    const auto program =
        compiler::SwScheduler(params).scheduleBootstrapBatch(64);

    auto sharded = ShardedBackend::timing(cfg, params, 4);
    const auto result = sharded.run(program, Job{});
    ASSERT_TRUE(result.hasReport);
    EXPECT_FALSE(result.hasOutputs);
    checkRetirementContract(program, result.retired);

    std::uint64_t max_cycles = 0;
    std::uint64_t bootstraps = 0;
    for (const auto &st : sharded.shardStats()) {
        EXPECT_TRUE(st.hasReport);
        EXPECT_GT(st.cycles, 0u);
        max_cycles = std::max(max_cycles, st.cycles);
    }
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        bootstraps += sharded.shardBackend(s).report().bootstraps;
    EXPECT_EQ(result.report.cycles, max_cycles);
    EXPECT_EQ(sharded.makespan(), max_cycles);
    EXPECT_EQ(result.report.bootstraps, bootstraps);
    EXPECT_EQ(result.report.bootstraps, 64u);

    // A 16-LWE shard of the superbatch cannot beat a quarter of the
    // monolithic run (BSK streaming is shared), but the makespan must
    // not exceed the monolithic accelerator either.
    TimingBackend mono(cfg, params);
    const auto whole = mono.run(program, Job{});
    EXPECT_LE(result.report.cycles, whole.report.cycles);
}

TEST_F(ShardedFixture, CosimAcceptsShardedTimingReference)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    FunctionalBackend functional(evalKeys());
    auto sharded = ShardedBackend::timing(
        arch::ArchConfig::morphlingDefault(), keys().params, 2);
    LockstepCosim cosim(functional, sharded);
    const auto report = cosim.run(program, job);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.timing.hasReport);
}

TEST_F(ShardedFixture, CosimAcceptsFleetTimingReference)
{
    // Shared-fabric shards have no inner TimingBackend; the
    // co-simulator's sharded checks must still verify their raw
    // shared-clock completion logs and come back green.
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    FunctionalBackend functional(evalKeys());
    auto sharded = ShardedBackend::fleetTiming(
        arch::ArchConfig::morphlingDefault(), keys().params, 4);
    EXPECT_TRUE(sharded.fleetMode());
    LockstepCosim cosim(functional, sharded);
    const auto report = cosim.run(program, job);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.timing.hasReport);
    EXPECT_EQ(sharded.shardCompletions().size(), 4u);
}

} // namespace
} // namespace morphling::exec
