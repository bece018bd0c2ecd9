/**
 * @file
 * Tests of the execution backends (src/exec): the FunctionalBackend's
 * bit-exactness against the tfhe reference batch path, its retirement
 * contract (coverage, per-group program order) and its one retirement
 * order at every thread count, the TimingBackend's cycle parity with a
 * bare arch::Accelerator run (and its empty-program result), the
 * kCosim backend, and the malformed-program diagnostics.
 */

#include <map>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/backend.h"
#include "exec/functional_backend.h"
#include "exec/sharded_backend.h"
#include "exec/timing_backend.h"
#include "tfhe/batch.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::exec {
namespace {

class ExecFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xE8EC);
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

    Rng rng{0x5EED5};

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

    /** Exactly-once coverage + per-group program order over one
     *  backend's retirement log. */
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

    static tfhe::KeySet *keys_;
    static tfhe::EvaluationKeys *evalKeys_;
};

tfhe::KeySet *ExecFixture::keys_ = nullptr;
tfhe::EvaluationKeys *ExecFixture::evalKeys_ = nullptr;

TEST_F(ExecFixture, FunctionalSuperbatchIsBitExact)
{
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);

    FunctionalBackend backend(evalKeys());
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    const auto result = backend.run(program, job);

    ASSERT_TRUE(result.hasOutputs);
    ASSERT_EQ(result.outputs.size(), 64u);
    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(result.outputs[i].raw(), reference[i].raw())
            << "slot " << i << " differs from tfhe::bootstrapInto";
        EXPECT_EQ(tfhe::decryptPadded(keys(), result.outputs[i], 4),
                  (i % 4 + 1) % 4);
    }
    checkRetirementContract(program, result.retired);
}

TEST_F(ExecFixture, ParallelRunMatchesSequential)
{
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return 3 - m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);

    // One executor, one retirement order: threads 2 and 4 reproduce
    // the inline (1-thread) run's outputs and log exactly.
    FunctionalBackend backend(evalKeys());
    const auto sequential =
        backend.run(program, Job::batch(inputs, lut));
    checkRetirementContract(program, sequential.retired);
    for (const unsigned threads : {2u, 4u}) {
        tfhe::BatchOptions options;
        options.threads = threads;
        const auto parallel =
            backend.run(program, Job::batch(inputs, lut, options));
        ASSERT_EQ(sequential.outputs.size(), parallel.outputs.size());
        for (std::size_t i = 0; i < sequential.outputs.size(); ++i)
            EXPECT_EQ(sequential.outputs[i].raw(),
                      parallel.outputs[i].raw())
                << "slot " << i << " at " << threads << " threads";
        ASSERT_EQ(sequential.retired.size(), parallel.retired.size());
        for (std::size_t i = 0; i < sequential.retired.size(); ++i) {
            EXPECT_EQ(sequential.retired[i].index,
                      parallel.retired[i].index)
                << "retirement " << i << " at " << threads << " threads";
            EXPECT_EQ(sequential.retired[i].seq, parallel.retired[i].seq);
        }
    }
}

TEST_F(ExecFixture, MultiStageBarrierProgramExecutes)
{
    // Two barrier-separated stages of 8 bootstraps. The Program
    // carries no inter-stage dataflow: each stage reads its own slots
    // of the flat input array (stage chaining is the runner's job).
    compiler::Workload w;
    w.name = "two-stage";
    w.stages.push_back({8, 0});
    w.stages.push_back({8, 0});
    const auto program =
        compiler::SwScheduler(keys().params).schedule(w);
    ASSERT_EQ(program.totalBlindRotations(), 16u);

    const auto inputs = encryptBatch(16);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 2) % 4;
    });
    FunctionalBackend backend(evalKeys());
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    const auto result = backend.run(program, job);

    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    ASSERT_EQ(result.outputs.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference[i].raw());
    checkRetirementContract(program, result.retired);
}

TEST_F(ExecFixture, TimingBackendKeepsAcceleratorCycles)
{
    const auto &params = tfhe::paramsSetI();
    const auto cfg = arch::ArchConfig::morphlingDefault();
    const auto program =
        compiler::SwScheduler(params).scheduleBootstrapBatch(64);

    // The bare accelerator run is the pre-backend reference; wrapping
    // it (and installing the retire hook) must not move a single cycle.
    const auto bare = arch::Accelerator(cfg, params).run(program);

    TimingBackend backend(cfg, params);
    const auto result = backend.run(program, Job{});
    ASSERT_TRUE(result.hasReport);
    EXPECT_EQ(result.report.cycles, bare.cycles);
    EXPECT_EQ(result.report.bootstraps, bare.bootstraps);
    EXPECT_EQ(result.report.hbmBytes, bare.hbmBytes);

    checkRetirementContract(program, result.retired);
    // Architectural retirement ticks never decrease.
    std::uint64_t last = 0;
    for (const auto &r : result.retired) {
        EXPECT_GE(r.tick, last);
        last = r.tick;
    }
}

TEST_F(ExecFixture, TimingCompletionLogCoversProgram)
{
    const auto &params = tfhe::paramsSetI();
    TimingBackend backend(arch::ArchConfig::morphlingDefault(), params);
    const auto program =
        compiler::SwScheduler(params).scheduleBootstrapBatch(32);
    const auto result = backend.run(program, Job{});
    const auto &completions = backend.completionOrder();
    ASSERT_EQ(completions.size(), program.size());
    std::set<std::size_t> seen;
    for (const auto &c : completions)
        EXPECT_TRUE(seen.insert(c.index).second);
    checkRetirementContract(program, result.retired);
}

TEST_F(ExecFixture, EmptyProgramRetiresNothing)
{
    const compiler::Program empty("empty");
    TimingBackend timing(arch::ArchConfig::morphlingDefault(),
                         keys().params);
    const auto timed = timing.run(empty, Job{});
    EXPECT_FALSE(timed.hasReport);
    EXPECT_TRUE(timed.retired.empty());
    EXPECT_TRUE(timing.completionOrder().empty());

    FunctionalBackend functional(evalKeys());
    const auto result = functional.run(empty, Job{});
    EXPECT_TRUE(result.outputs.empty());
    EXPECT_TRUE(result.retired.empty());
}

TEST_F(ExecFixture, CosimBackendReturnsBothHalves)
{
    const auto inputs = encryptBatch(16);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 3) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(16);
    const Job job = Job::batch(inputs, lut);

    BackendSpec spec;
    spec.kind = BackendKind::kCosim;
    const auto cosim = makeBackend(evalKeys(), spec);
    EXPECT_EQ(cosim->name(), "cosim");
    const auto result = cosim->run(program, job);

    const auto functional = FunctionalBackend(evalKeys()).run(program, job);
    ASSERT_TRUE(result.hasOutputs);
    ASSERT_EQ(result.outputs.size(), functional.outputs.size());
    for (std::size_t i = 0; i < result.outputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), functional.outputs[i].raw());
    checkRetirementContract(program, result.retired);

    const auto timed =
        TimingBackend(spec.timing, keys().params).run(program, job);
    ASSERT_TRUE(result.hasReport);
    EXPECT_EQ(result.report.cycles, timed.report.cycles);
    EXPECT_EQ(result.report.bootstraps, timed.report.bootstraps);
    EXPECT_EQ(result.report.hbmBytes, timed.report.hbmBytes);
    EXPECT_EQ(result.report.bskBytes, timed.report.bskBytes);
    EXPECT_EQ(result.report.xpuBusyCycles, timed.report.xpuBusyCycles);
}

TEST_F(ExecFixture, BackendKindNamesAreStable)
{
    EXPECT_STREQ(backendKindName(BackendKind::kFunctional),
                 "functional");
    EXPECT_STREQ(backendKindName(BackendKind::kTiming), "timing");
    EXPECT_STREQ(backendKindName(BackendKind::kCosim), "cosim");
}

TEST_F(ExecFixture, UnverifiedProgramsThrowOnEveryBackend)
{
    // Three streams the interpreter used to abort on: a 4-LWE batch
    // without its VPU.MS (which the cycle model used to time), and a
    // two-stage, two-group program whose group 1 changes or drops its
    // barrier (timed, and drained without completing, respectively).
    const auto &params = keys().params;
    const auto rebuilt = [](const compiler::Program &program,
                            std::size_t index, bool drop,
                            std::uint32_t operand) {
        compiler::Program out(program.name());
        for (std::size_t i = 0; i < program.size(); ++i) {
            compiler::Instruction inst = program.at(i);
            if (i == index && drop)
                continue;
            if (i == index)
                inst.operand = operand;
            out.add(inst);
        }
        return out;
    };
    compiler::SchedulerConfig pairs;
    pairs.groupSize = 1;
    pairs.numGroups = 2;
    compiler::Workload w;
    w.name = "two-stage";
    w.stages = {{2, 0}, {2, 0}};
    const auto staged = compiler::SwScheduler(params, pairs).schedule(w);
    ASSERT_EQ(staged.at(17).op, compiler::Opcode::Barrier);
    ASSERT_EQ(staged.at(17).group, 1u);
    const compiler::Program mutants[] = {
        rebuilt(compiler::SwScheduler(params).scheduleBootstrapBatch(4),
                1, true, 0),
        rebuilt(staged, 17, false, 7),
        rebuilt(staged, 17, true, 0),
    };
    const auto cfg = arch::ArchConfig::morphlingDefault();
    for (const auto &program : mutants) {
        const auto inputs = encryptBatch(program.totalBlindRotations());
        const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
            return m;
        });
        const Job job = Job::batch(inputs, lut);
        SCOPED_TRACE(program.disassemble());
        FunctionalBackend functional(evalKeys());
        EXPECT_THROW(functional.run(program, job), std::invalid_argument);
        TimingBackend timing(cfg, params);
        EXPECT_THROW(timing.run(program, job), std::invalid_argument);
        auto sharded = ShardedBackend::timing(cfg, params, 2);
        EXPECT_THROW(sharded.run(program, job), std::invalid_argument);
    }
}

using ExecDeathTest = ExecFixture;

TEST_F(ExecDeathTest, MalformedStreamIsRejected)
{
    // An XPU.BR with no chunk open does not verify: the backend throws
    // the verifier's diagnostic instead of computing garbage.
    compiler::Program program("broken");
    program.add({compiler::Opcode::XpuBlindRotate, 0, 4,
                 keys().params.lweDimension});
    const auto inputs = encryptBatch(4);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    FunctionalBackend backend(evalKeys());
    EXPECT_THROW(backend.run(program, job), std::invalid_argument);
}

TEST_F(ExecDeathTest, InputCountMismatchIsRejected)
{
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);
    const auto inputs = encryptBatch(4); // program wants 8
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    FunctionalBackend backend(evalKeys());
    EXPECT_THROW(backend.run(program, job), std::invalid_argument);
}

} // namespace
} // namespace morphling::exec
