/**
 * @file
 * Randomized co-simulation fuzz: generate random multi-stage
 * workloads, compile them, and cross-check the functional backend
 * against the cycle model, both monolithic and split across a random
 * number of accelerators; its one-thread log must equal the sharded
 * merge, and its 4-thread run must reproduce the one-thread outputs
 * and log (CosimFuzz). Then mutate compiled Programs as a hostile
 * client could (ProgramFuzz): whatever the verifier rejects, both
 * backends and a live RemoteServer reject with a typed error; whatever
 * it accepts passes the lockstep co-simulation against the
 * tfhe::batchBootstrap reference.
 * The seed comes from MORPHLING_FUZZ_SEED when set and is
 * echoed in the log either way, so any CI failure reproduces locally
 * with one env var.
 */

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/config.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "compiler/verify.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
#include "exec/remote_backend.h"
#include "exec/remote_server.h"
#include "exec/sharded_backend.h"
#include "exec/timing_backend.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::exec {
namespace {

std::uint64_t
fuzzSeed()
{
    if (const char *env = std::getenv("MORPHLING_FUZZ_SEED"))
        return std::strtoull(env, nullptr, 0);
    return 0xF022EDull;
}

class CosimFuzz : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xF0CC);
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

    /** Random workload: 1-3 dependent stages of 1-20 bootstraps each,
     *  some with a linear-MAC prologue. */
    compiler::Workload
    randomWorkload(Rng &rng, unsigned iteration)
    {
        compiler::Workload w;
        w.name = "fuzz-" + std::to_string(iteration);
        const unsigned stages = 1 + static_cast<unsigned>(rng.nextBelow(3));
        for (unsigned s = 0; s < stages; ++s) {
            compiler::WorkloadStage stage;
            stage.bootstraps = 1 + rng.nextBelow(20);
            stage.linearMacs = rng.nextBit() ? rng.nextBelow(600) : 0;
            w.stages.push_back(stage);
        }
        return w;
    }

    static tfhe::KeySet *keys_;
    static tfhe::EvaluationKeys *evalKeys_;
};

tfhe::KeySet *CosimFuzz::keys_ = nullptr;
tfhe::EvaluationKeys *CosimFuzz::evalKeys_ = nullptr;

TEST_F(CosimFuzz, RandomWorkloadsPassLockstepAndShardedChecks)
{
    const std::uint64_t seed = fuzzSeed();
    // The one line a CI log must carry to reproduce a red run:
    //   MORPHLING_FUZZ_SEED=<seed> ctest -R CosimFuzz
    std::printf("MORPHLING_FUZZ_SEED=%llu\n",
                static_cast<unsigned long long>(seed));
    Rng rng(seed);

    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const compiler::SwScheduler scheduler(keys().params);
    const auto arch_cfg = arch::ArchConfig::morphlingDefault();

    for (unsigned iteration = 0; iteration < 2; ++iteration) {
        const auto workload = randomWorkload(rng, iteration);
        const auto program = scheduler.schedule(workload);
        SCOPED_TRACE("iteration " + std::to_string(iteration) + ": " +
                     std::to_string(workload.stages.size()) +
                     " stages, " +
                     std::to_string(workload.totalBootstraps()) +
                     " bootstraps");

        std::vector<tfhe::LweCiphertext> inputs;
        const auto slots = program.totalBlindRotations();
        inputs.reserve(slots);
        for (std::uint64_t i = 0; i < slots; ++i) {
            inputs.push_back(tfhe::encryptPadded(
                keys(), static_cast<std::uint32_t>(rng.nextBelow(4)), 4,
                rng));
        }
        Job job;
        job.inputs = &inputs;
        job.lut = &lut;

        // Functional vs. cycle model, with the bit-exact end-of-program
        // reference enabled.
        FunctionalBackend functional(evalKeys());
        TimingBackend timing(arch_cfg, keys().params);
        CosimOptions options;
        options.referenceKeys = &evalKeys();
        LockstepCosim cosim(functional, timing, options);
        const auto report = cosim.run(program, job);
        EXPECT_TRUE(report.ok()) << report.summary();

        // A random shard count of private accelerators as the timing
        // reference: the slices partition the program, every shard
        // passes the dependency-order checks, and the merged order is
        // the functional run's.
        const unsigned n_shards = 1 + static_cast<unsigned>(rng.nextBelow(5));
        FunctionalBackend sharded_functional(evalKeys());
        auto sharded =
            ShardedBackend::timing(arch_cfg, keys().params, n_shards);
        LockstepCosim sharded_cosim(sharded_functional, sharded);
        const auto sharded_report = sharded_cosim.run(program, job);
        EXPECT_TRUE(sharded_report.ok())
            << n_shards << " shards: " << sharded_report.summary();

        Job par_job = job;
        par_job.options.threads = 4;
        FunctionalBackend mono(evalKeys());
        const auto parallel = mono.run(program, par_job);
        ASSERT_TRUE(report.functional.hasOutputs);
        ASSERT_EQ(parallel.outputs.size(),
                  report.functional.outputs.size());
        for (std::size_t i = 0; i < parallel.outputs.size(); ++i) {
            EXPECT_EQ(parallel.outputs[i].raw(),
                      report.functional.outputs[i].raw())
                << "slot " << i << " at 4 threads";
        }
        const auto &sequential = report.functional.retired;
        const auto &merged = sharded_report.timing.retired;
        ASSERT_EQ(merged.size(), sequential.size());
        ASSERT_EQ(parallel.retired.size(), sequential.size());
        for (std::size_t i = 0; i < sequential.size(); ++i) {
            EXPECT_EQ(merged[i].index, sequential[i].index)
                << "retirement " << i << " with " << n_shards
                << " shards";
            EXPECT_EQ(parallel.retired[i].index, sequential[i].index)
                << "retirement " << i << " at 4 threads";
        }
    }
}

using ProgramFuzz = CosimFuzz;

/** One random edit of a compiled instruction stream: drop, duplicate
 *  or swap instructions, move one to another group, corrupt a count, a
 *  barrier id or the XPU.BR operand, or truncate the program. */
void
mutate(std::vector<compiler::Instruction> &v, Rng &rng)
{
    if (v.empty())
        return;
    const std::size_t i = rng.nextBelow(v.size());
    const auto pick = [&](compiler::Opcode op) -> compiler::Instruction * {
        std::vector<std::size_t> found;
        for (std::size_t j = 0; j < v.size(); ++j) {
            if (v[j].op == op)
                found.push_back(j);
        }
        return found.empty() ? nullptr
                             : &v[found[rng.nextBelow(found.size())]];
    };
    switch (rng.nextBelow(8)) {
      case 0:
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1: {
        const compiler::Instruction copy = v[i];
        v.insert(v.begin() + static_cast<std::ptrdiff_t>(
                                 rng.nextBelow(v.size() + 1)),
                 copy);
        break;
      }
      case 2:
        std::swap(v[i], v[rng.nextBelow(v.size())]);
        break;
      case 3:
        v[i].group = static_cast<std::uint8_t>(rng.nextBelow(6));
        break;
      case 4:
        v[i].count = static_cast<std::uint16_t>(
            rng.nextBelow(std::uint64_t{v[i].count} + 3));
        break;
      case 5:
        if (auto *bar = pick(compiler::Opcode::Barrier))
            bar->operand += 1 + static_cast<std::uint32_t>(rng.nextBelow(3));
        break;
      case 6:
        if (auto *br = pick(compiler::Opcode::XpuBlindRotate))
            br->operand = rng.nextBit() ? br->operand + 1 : br->operand - 1;
        break;
      default:
        v.resize(rng.nextBelow(v.size()));
        break;
    }
}

TEST_F(ProgramFuzz, MutantsAreRejectedTypedOrRunClean)
{
    const std::uint64_t seed = fuzzSeed();
    std::printf("MORPHLING_FUZZ_SEED=%llu\n",
                static_cast<unsigned long long>(seed));
    Rng rng(seed);

    const auto &params = keys().params;
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 3) % 4;
    });
    const auto arch_cfg = arch::ArchConfig::morphlingDefault();
    RemoteServer server;
    server.addKeys(evalKeys());
    server.start();
    RemoteClientConfig client;
    client.port = server.port();
    RemoteBackend remote(evalKeys(), client);

    unsigned accepted = 0;
    unsigned rejected = 0;
    unsigned sent = 0;
    for (unsigned iteration = 0; iteration < 150; ++iteration) {
        compiler::SchedulerConfig config;
        const unsigned sizes[] = {1, 2, 4, 16};
        config.groupSize = sizes[rng.nextBelow(4)];
        config.numGroups = 1 + static_cast<unsigned>(rng.nextBelow(4));
        if (rng.nextBit())
            config.interleave = compiler::InterleaveMode::kGroupInterleaved;
        compiler::Workload w;
        w.name = "mutant-" + std::to_string(iteration);
        const unsigned stages = 1 + static_cast<unsigned>(rng.nextBelow(3));
        for (unsigned st = 0; st < stages; ++st)
            w.stages.push_back({rng.nextBelow(9),
                                rng.nextBit() ? rng.nextBelow(600) : 0});
        std::vector<compiler::Instruction> instrs =
            compiler::SwScheduler(params, config).schedule(w).instructions();
        const unsigned edits = 1 + static_cast<unsigned>(rng.nextBelow(2));
        for (unsigned e = 0; e < edits; ++e)
            mutate(instrs, rng);
        compiler::Program mutant(w.name);
        for (const auto &inst : instrs)
            mutant.add(inst);
        SCOPED_TRACE("iteration " + std::to_string(iteration) + ":\n" +
                     mutant.disassemble());

        std::vector<tfhe::LweCiphertext> inputs;
        for (std::uint64_t i = 0; i < mutant.totalBlindRotations(); ++i) {
            inputs.push_back(tfhe::encryptPadded(
                keys(), static_cast<std::uint32_t>(rng.nextBelow(4)), 4,
                rng));
        }
        const Job job = Job::batch(inputs, lut);
        FunctionalBackend functional(evalKeys());
        TimingBackend timing(arch_cfg, params);

        std::string error;
        if (!compiler::verify(mutant, params, &error).has_value()) {
            ++rejected;
            EXPECT_THROW(functional.run(mutant, job), std::invalid_argument);
            EXPECT_THROW(timing.run(mutant, job), std::invalid_argument);
            if (sent < 4 && !inputs.empty()) {
                // Over the wire: a typed kBadProgram, nothing executed
                // or cached, and the server keeps serving.
                ++sent;
                try {
                    (void)remote.run(mutant, job);
                    ADD_FAILURE() << "server ran a rejected program";
                } catch (const remote::RemoteError &e) {
                    EXPECT_EQ(e.kind(), remote::RemoteErrorKind::kBadProgram)
                        << e.what();
                }
                EXPECT_EQ(server.executionsFor(remote.lastRequestId()), 0u);
            }
            continue;
        }
        ++accepted;
        CosimOptions options;
        options.referenceKeys = &evalKeys();
        const auto report =
            LockstepCosim(functional, timing, options).run(mutant, job);
        EXPECT_TRUE(report.ok()) << report.summary();
    }
    std::printf("ProgramFuzz: %u accepted, %u rejected, %u sent remote\n",
                accepted, rejected, sent);
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(sent, 0u);

    // The last rejection left the server serving valid requests.
    const auto program =
        compiler::SwScheduler(params).scheduleBootstrapBatch(3);
    std::vector<tfhe::LweCiphertext> inputs;
    for (std::uint32_t m = 0; m < 3; ++m)
        inputs.push_back(tfhe::encryptPadded(keys(), m, 4, rng));
    const auto result = remote.run(program, Job::batch(inputs, lut));
    ASSERT_EQ(result.outputs.size(), 3u);
    for (std::uint32_t m = 0; m < 3; ++m)
        EXPECT_EQ(tfhe::decryptPadded(keys(), result.outputs[m], 4),
                  (m + 3) % 4);
    server.stop();
}

} // namespace
} // namespace morphling::exec
