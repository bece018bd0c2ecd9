/**
 * @file
 * Tests of the co-simulator: a clean FunctionalBackend /
 * TimingBackend pair passes all cross-checks (including the bit-exact
 * end-of-program ciphertext comparison), and scripted stub backends
 * prove each class of divergence — reordered retirement, missed
 * coverage, mismatched instructions — is actually caught and reported
 * rather than silently accepted, and that the kCosim backend turns a
 * divergence into a typed CosimError.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "arch/config.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
#include "exec/timing_backend.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::exec {
namespace {

class CosimFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xC0517);
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

    Rng rng{0xC051};

    static tfhe::KeySet *keys_;
    static tfhe::EvaluationKeys *evalKeys_;
};

tfhe::KeySet *CosimFixture::keys_ = nullptr;
tfhe::EvaluationKeys *CosimFixture::evalKeys_ = nullptr;

TEST_F(CosimFixture, SuperbatchPassesAllChecks)
{
    std::vector<tfhe::LweCiphertext> inputs;
    for (unsigned i = 0; i < 64; ++i)
        inputs.push_back(tfhe::encryptPadded(keys(), i % 4, 4, rng));
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);

    FunctionalBackend functional(evalKeys());
    TimingBackend timing(arch::ArchConfig::morphlingDefault(),
                         keys().params);
    CosimOptions options;
    options.referenceKeys = &evalKeys();
    LockstepCosim cosim(functional, timing, options);

    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    const auto report = cosim.run(program, job);

    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.instructions, program.size());
    EXPECT_EQ(report.lockstepComparisons, program.size());
    EXPECT_TRUE(report.functional.hasOutputs);
    EXPECT_TRUE(report.timing.hasReport);
    EXPECT_GT(report.timing.report.cycles, 0u);
}

TEST_F(CosimFixture, MultiStageBarrierProgramPasses)
{
    compiler::Workload w;
    w.name = "layers";
    w.stages.push_back({16, 500});
    w.stages.push_back({16, 0});
    const auto scheduled =
        compiler::SwScheduler(keys().params).schedule(w);
    // The same group streams with the groups laid out one after the
    // other: group 0's barrier now precedes group 1's first-stage work
    // in the flat list, which the rendezvous does not care about.
    const compiler::Program grouped = [&] {
        auto instrs = scheduled.instructions();
        std::stable_sort(instrs.begin(), instrs.end(),
                         [](const auto &a, const auto &b) {
                             return a.group < b.group;
                         });
        compiler::Program out("grouped");
        for (const auto &inst : instrs)
            out.add(inst);
        return out;
    }();

    std::vector<tfhe::LweCiphertext> inputs;
    for (unsigned i = 0; i < 32; ++i)
        inputs.push_back(tfhe::encryptPadded(keys(), i % 4, 4, rng));
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return 3 - m;
    });

    FunctionalBackend functional(evalKeys());
    TimingBackend timing(arch::ArchConfig::morphlingDefault(),
                         keys().params);
    CosimOptions options;
    options.referenceKeys = &evalKeys();
    LockstepCosim cosim(functional, timing, options);

    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    for (const auto *program : {&scheduled, &grouped}) {
        const auto report = cosim.run(*program, job);
        EXPECT_TRUE(report.ok()) << program->name() << ": "
                                 << report.summary();
    }
}

/**
 * A backend that returns a pre-scripted retirement log verbatim —
 * the adversarial half of the co-sim tests: by scripting a defect we
 * prove the oracle actually fires.
 */
class ScriptedBackend final : public ExecutionBackend
{
  public:
    ScriptedBackend(std::string name,
                    std::vector<RetiredInstruction> script)
        : name_(std::move(name)), script_(std::move(script))
    {
    }

    std::string_view name() const override { return name_; }

    ExecutionResult
    run(const compiler::Program &, const Job &) override
    {
        ExecutionResult result;
        result.backend = name_;
        result.retired = script_;
        return result;
    }

  private:
    std::string name_;
    std::vector<RetiredInstruction> script_;
};

/** A small two-group program and its in-order retirement script. */
compiler::Program
tinyProgram()
{
    compiler::Program prog("tiny");
    prog.add({compiler::Opcode::VpuModSwitch, 0, 1, 0});
    prog.add({compiler::Opcode::VpuSampleExtract, 0, 1, 0});
    prog.add({compiler::Opcode::VpuModSwitch, 1, 1, 0});
    prog.add({compiler::Opcode::VpuSampleExtract, 1, 1, 0});
    return prog;
}

std::vector<RetiredInstruction>
scriptInProgramOrder(const compiler::Program &prog)
{
    std::vector<RetiredInstruction> script;
    for (std::size_t i = 0; i < prog.size(); ++i)
        script.push_back({i, prog.at(i), i, 0});
    return script;
}

TEST(CosimStub, IdenticalScriptsPass)
{
    const auto prog = tinyProgram();
    ScriptedBackend a("stub-a", scriptInProgramOrder(prog));
    ScriptedBackend b("stub-b", scriptInProgramOrder(prog));
    LockstepCosim cosim(a, b);
    const auto report = cosim.run(prog, Job{});
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.lockstepComparisons, prog.size());
}

TEST(CosimStub, SameGroupReorderIsCaught)
{
    const auto prog = tinyProgram();
    auto reordered = scriptInProgramOrder(prog);
    std::swap(reordered[0], reordered[1]); // group 0 out of order
    ScriptedBackend good("good", scriptInProgramOrder(prog));
    ScriptedBackend bad("bad", reordered);
    LockstepCosim cosim(good, bad);
    const auto report = cosim.run(prog, Job{});
    EXPECT_FALSE(report.ok());
}

TEST(CosimStub, MissingRetirementIsCaught)
{
    const auto prog = tinyProgram();
    auto partial = scriptInProgramOrder(prog);
    partial.pop_back();
    ScriptedBackend good("good", scriptInProgramOrder(prog));
    ScriptedBackend bad("bad", partial);
    LockstepCosim cosim(good, bad);
    const auto report = cosim.run(prog, Job{});
    EXPECT_FALSE(report.ok());
}

TEST(CosimStub, DoubleRetirementIsCaught)
{
    const auto prog = tinyProgram();
    auto doubled = scriptInProgramOrder(prog);
    doubled.back() = doubled.front(); // index 0 retires twice
    ScriptedBackend good("good", scriptInProgramOrder(prog));
    ScriptedBackend bad("bad", doubled);
    LockstepCosim cosim(good, bad);
    const auto report = cosim.run(prog, Job{});
    EXPECT_FALSE(report.ok());
}

TEST(CosimStub, ForeignInstructionIsCaught)
{
    const auto prog = tinyProgram();
    auto tampered = scriptInProgramOrder(prog);
    tampered[2].inst.count = 99; // not what the program says
    ScriptedBackend good("good", scriptInProgramOrder(prog));
    ScriptedBackend bad("bad", tampered);
    LockstepCosim cosim(good, bad);
    const auto report = cosim.run(prog, Job{});
    EXPECT_FALSE(report.ok());
}

TEST(CosimStub, ErrorListIsBounded)
{
    const auto prog = tinyProgram();
    auto reversed = scriptInProgramOrder(prog);
    std::reverse(reversed.begin(), reversed.end());
    ScriptedBackend good("good", scriptInProgramOrder(prog));
    ScriptedBackend bad("bad", reversed);
    CosimOptions options;
    options.maxErrors = 2;
    LockstepCosim cosim(good, bad, options);
    const auto report = cosim.run(prog, Job{});
    EXPECT_FALSE(report.ok());
    // maxErrors diagnostics plus at most one suppression notice.
    EXPECT_LE(report.errors.size(), options.maxErrors + 1);
}

TEST(CosimStub, CosimBackendThrowsTypedErrorOnDivergence)
{
    const auto prog = tinyProgram();
    auto reordered = scriptInProgramOrder(prog);
    std::swap(reordered[2], reordered[3]); // group 1 out of order
    CosimBackend clean(
        std::make_unique<ScriptedBackend>("good",
                                          scriptInProgramOrder(prog)),
        std::make_unique<ScriptedBackend>("good-timing",
                                          scriptInProgramOrder(prog)));
    EXPECT_EQ(clean.run(prog, Job{}).retired.size(), prog.size());

    CosimBackend diverging(
        std::make_unique<ScriptedBackend>("good",
                                          scriptInProgramOrder(prog)),
        std::make_unique<ScriptedBackend>("bad", reordered));
    try {
        (void)diverging.run(prog, Job{});
        FAIL() << "a divergence must throw CosimError";
    } catch (const CosimError &e) {
        EXPECT_FALSE(e.report().ok());
        EXPECT_EQ(e.report().instructions, prog.size());
        EXPECT_NE(std::string(e.what()).find("cosim FAILED"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace morphling::exec
