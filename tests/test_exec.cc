/**
 * @file
 * Tests of the execution backends (src/exec): the FunctionalBackend's
 * bit-exactness against the tfhe reference batch path, its retirement
 * contract (coverage, per-group program order) in both stepped and
 * parallel modes, the TimingBackend's cycle parity with a bare
 * arch::Accelerator run, and the malformed-program diagnostics.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/backend.h"
#include "exec/functional_backend.h"
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

    Job job;
    job.inputs = &inputs;
    job.lut = &lut;

    FunctionalBackend seq(evalKeys());
    const auto sequential = seq.run(program, job);

    job.options.threads = 4;
    FunctionalBackend par(evalKeys());
    const auto parallel = par.run(program, job);

    ASSERT_EQ(sequential.outputs.size(), parallel.outputs.size());
    for (std::size_t i = 0; i < sequential.outputs.size(); ++i)
        EXPECT_EQ(sequential.outputs[i].raw(), parallel.outputs[i].raw());
    checkRetirementContract(program, parallel.retired);
}

TEST_F(ExecFixture, SingleSteppedRetirementHonoursContract)
{
    const auto inputs = encryptBatch(16);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(16);

    FunctionalBackend backend(evalKeys());
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    backend.load(program, job);
    std::vector<RetiredInstruction> log;
    while (auto r = backend.step())
        log.push_back(*r);
    EXPECT_TRUE(backend.done());
    checkRetirementContract(program, log);
    const auto result = backend.finish();
    ASSERT_TRUE(result.hasOutputs);
    const auto reference = tfhe::batchBootstrap(keys(), inputs, lut);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference[i].raw());
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
    backend.load(program, Job{});
    const auto &completions = backend.completionOrder();
    ASSERT_EQ(completions.size(), program.size());
    std::set<std::size_t> seen;
    for (const auto &c : completions)
        EXPECT_TRUE(seen.insert(c.index).second);
    while (backend.step()) {
    }
    (void)backend.finish();
}

TEST_F(ExecFixture, BackendKindNamesAreStable)
{
    EXPECT_STREQ(backendKindName(BackendKind::kFunctional),
                 "functional");
    EXPECT_STREQ(backendKindName(BackendKind::kTiming), "timing");
    EXPECT_STREQ(backendKindName(BackendKind::kCosim), "cosim");
}

using ExecDeathTest = ExecFixture;

TEST_F(ExecDeathTest, MalformedStreamIsRejected)
{
    // An XPU.BR with no chunk staged: the functional backend is an IR
    // validity checker, not a garbage generator.
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
    EXPECT_DEATH(backend.load(program, job), "");
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
    EXPECT_DEATH(backend.load(program, job), "");
}

} // namespace
} // namespace morphling::exec
