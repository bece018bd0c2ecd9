/**
 * @file
 * Randomized co-simulation fuzz: generate random multi-stage
 * workloads, compile them, and cross-check the functional backend
 * against the cycle model, both monolithic and split across a random
 * number of accelerators; its one-thread log must equal the sharded
 * merge, and its 4-thread run must reproduce the one-thread outputs
 * and log.
 * The seed comes from MORPHLING_FUZZ_SEED when set and is
 * echoed in the log either way, so any CI failure reproduces locally
 * with one env var.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "arch/config.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
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

} // namespace
} // namespace morphling::exec
