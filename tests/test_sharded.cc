/**
 * @file
 * Tests of exec::ShardedBackend: bit-identical outputs and an
 * identical merged retirement order to the single FunctionalBackend
 * for N in {1, 2, 4} shards, the retirement contract over the merged
 * log, timing-shard makespan semantics, mixed functional/timing
 * fleets, and the co-simulator's sharded-reference checks.
 */

#include <map>
#include <set>

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

    /** Exactly-once coverage + per-group program order. */
    static void
    checkRetirementContract(const compiler::Program &program,
                            const std::vector<RetiredInstruction> &log)
    {
        ASSERT_EQ(log.size(), program.size());
        std::set<std::size_t> seen;
        std::map<unsigned, std::size_t> last_index;
        for (const auto &r : log) {
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

    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    // The group-parallel functional run is the canonical retirement
    // order ShardedBackend's merge reproduces for every shard count.
    Job par_job = job;
    par_job.options.threads = 4;
    FunctionalBackend mono(evalKeys());
    const auto reference = mono.run(program, par_job);
    ASSERT_TRUE(reference.hasOutputs);

    for (const unsigned n : {1u, 2u, 4u}) {
        auto sharded = ShardedBackend::functional(evalKeys(), n);
        const auto result = sharded.run(program, job);
        ASSERT_TRUE(result.hasOutputs) << n << " shards";
        ASSERT_EQ(result.outputs.size(), reference.outputs.size());
        for (std::size_t i = 0; i < result.outputs.size(); ++i) {
            EXPECT_EQ(result.outputs[i].raw(),
                      reference.outputs[i].raw())
                << "slot " << i << " with " << n << " shards";
        }
        expectSameOrder(result.retired, reference.retired);
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
    FunctionalBackend mono(evalKeys());
    const auto reference = mono.run(program, par_job);

    auto sharded = ShardedBackend::functional(evalKeys(), 2);
    const auto result = sharded.run(program, job);
    ASSERT_TRUE(result.hasOutputs);
    for (std::size_t i = 0; i < result.outputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference.outputs[i].raw());
    expectSameOrder(result.retired, reference.retired);
}

TEST_F(ShardedFixture, MoreShardsThanGroupsStillCovers)
{
    // 8 bootstraps schedule into fewer groups than shards; the extra
    // shards run empty slices and the merge still covers everything.
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);
    const auto inputs = encryptBatch(8);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    auto sharded = ShardedBackend::functional(evalKeys(), 6);
    const auto result = sharded.run(program, job);
    ASSERT_TRUE(result.hasOutputs);
    checkRetirementContract(program, result.retired);
    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference[i].raw());
}

TEST_F(ShardedFixture, SteppedReplayHonoursContract)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(32);
    const auto inputs = encryptBatch(32);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 2) % 4;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    auto sharded = ShardedBackend::functional(evalKeys(), 4);
    sharded.load(program, job);
    EXPECT_FALSE(sharded.done());
    std::vector<RetiredInstruction> log;
    while (auto r = sharded.step()) {
        EXPECT_EQ(r->seq, log.size());
        log.push_back(*r);
    }
    EXPECT_TRUE(sharded.done());
    checkRetirementContract(program, log);

    const auto result = sharded.finish();
    ASSERT_TRUE(result.hasOutputs);
    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference[i].raw());
}

TEST_F(ShardedFixture, ShardStatsDescribeThePartition)
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

    auto sharded = ShardedBackend::functional(evalKeys(), 4);
    (void)sharded.run(program, job);
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
        EXPECT_FALSE(st.hasReport); // functional shards do not time
        EXPECT_GT(st.wallNanos, 0u);
        EXPECT_GT(st.cpuNanos, 0u);
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
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        const auto *tb = dynamic_cast<const TimingBackend *>(
            &sharded.shardBackend(s));
        ASSERT_NE(tb, nullptr);
        bootstraps += tb->report().bootstraps;
    }
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

TEST_F(ShardedFixture, MixedFunctionalAndTimingShards)
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

    std::vector<std::unique_ptr<ExecutionBackend>> mix;
    mix.push_back(std::make_unique<FunctionalBackend>(evalKeys()));
    mix.push_back(std::make_unique<TimingBackend>(
        arch::ArchConfig::morphlingDefault(), keys().params));
    ShardedBackend sharded(std::move(mix));
    const auto result = sharded.run(program, job);

    // The timing shard produced no ciphertexts, so the merged result
    // has none either — but it does carry the timing shard's report,
    // and the merged log still covers the whole program.
    EXPECT_FALSE(result.hasOutputs);
    EXPECT_TRUE(result.hasReport);
    EXPECT_GT(result.report.cycles, 0u);
    checkRetirementContract(program, result.retired);
}

TEST_F(ShardedFixture, CosimAcceptsShardedFunctionalReference)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    auto sharded = ShardedBackend::functional(evalKeys(), 4);
    TimingBackend timing(arch::ArchConfig::morphlingDefault(),
                         keys().params);
    CosimOptions options;
    options.referenceKeys = &evalKeys();
    LockstepCosim cosim(sharded, timing, options);
    const auto report = cosim.run(program, job);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.lockstepComparisons, program.size());
    EXPECT_TRUE(report.functional.hasOutputs);
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

using ShardedDeathTest = ShardedFixture;

TEST_F(ShardedDeathTest, FinishBeforeFullReplayIsRejected)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);
    const auto inputs = encryptBatch(8);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    auto sharded = ShardedBackend::functional(evalKeys(), 2);
    sharded.load(program, job);
    (void)sharded.step();
    EXPECT_DEATH((void)sharded.finish(), "");
}

} // namespace
} // namespace morphling::exec
