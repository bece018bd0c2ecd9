/**
 * @file
 * Tests of the application workload builders (Section VI-A models),
 * the verifier's acceptance of every Program the scheduler emits for
 * them, and the CPU cost model.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cpu_cost_model.h"
#include "apps/workloads.h"
#include "compiler/sw_scheduler.h"
#include "compiler/verify.h"
#include "tfhe/params.h"

namespace morphling::apps {
namespace {

TEST(LayerSpec, ShapeCalculator)
{
    // 8x8 input, 3x3 kernel, stride 1 -> 6x6.
    LayerSpec l{8, 8, 1, 3, 2, 1, true};
    EXPECT_EQ(l.outHeight(), 6u);
    EXPECT_EQ(l.outWidth(), 6u);
    EXPECT_EQ(l.outputs(), 72u);
    EXPECT_EQ(l.macs(), 72u * 9);

    // 6x6 input, 3x3 kernel, stride 2 -> 2x2 (the paper's 368 ReLUs
    // come from 2x2x92).
    LayerSpec l2{6, 6, 2, 3, 92, 2, true};
    EXPECT_EQ(l2.outHeight(), 2u);
    EXPECT_EQ(l2.outputs(), 368u);
}

TEST(Workloads, XgboostNodeCount)
{
    // 100 estimators, depth 6: 100 * (2^6 - 1) = 6300 comparisons.
    const auto w = xgboostWorkload(100, 6);
    EXPECT_EQ(w.totalBootstraps(), 6300u);
    ASSERT_EQ(w.stages.size(), 2u);
    EXPECT_EQ(w.stages[1].linearMacs, 6400u); // leaf aggregation
}

TEST(Workloads, DeepCnnMatchesPaperDescription)
{
    const auto w = deepCnnWorkload(20);
    // Layers: conv1, conv2, 20 x 1x1, last conv, FC.
    ASSERT_EQ(w.stages.size(), 24u);
    // conv1: 6x6x2 = 72 ReLUs.
    EXPECT_EQ(w.stages[0].bootstraps, 72u);
    // conv2 and every 1x1 layer: the paper's 368 ReLUs.
    for (std::size_t i = 1; i <= 21; ++i)
        EXPECT_EQ(w.stages[i].bootstraps, 368u) << "stage " << i;
    // final conv: 1x1x16.
    EXPECT_EQ(w.stages[22].bootstraps, 16u);
    // FC logits: no activation.
    EXPECT_EQ(w.stages[23].bootstraps, 0u);
    EXPECT_EQ(w.stages[23].linearMacs, 160u);
}

TEST(Workloads, DeepCnnScalesWithDepth)
{
    const auto w20 = deepCnnWorkload(20);
    const auto w50 = deepCnnWorkload(50);
    const auto w100 = deepCnnWorkload(100);
    EXPECT_EQ(w50.totalBootstraps() - w20.totalBootstraps(),
              30u * 368);
    EXPECT_EQ(w100.totalBootstraps() - w50.totalBootstraps(),
              50u * 368);
}

TEST(Workloads, Vgg9Structure)
{
    const auto w = vgg9Workload();
    // 6 convs + 2 pools + 3 FCs = 11 stages.
    ASSERT_EQ(w.stages.size(), 11u);
    // conv1: 32x32x64 ReLUs.
    EXPECT_EQ(w.stages[0].bootstraps, 32u * 32 * 64);
    // pools have no bootstraps.
    EXPECT_EQ(w.stages[2].bootstraps, 0u);
    EXPECT_EQ(w.stages[5].bootstraps, 0u);
    // conv2 MACs: 32*32*64 outputs x 3*3*64 fan-in.
    EXPECT_EQ(w.stages[1].linearMacs, 32ull * 32 * 64 * 9 * 64);
    // last FC: 10 logits, no ReLU.
    EXPECT_EQ(w.stages[10].bootstraps, 0u);
    EXPECT_GT(w.totalBootstraps(), 200000u);
}

TEST(Workloads, EverySchedulerProgramVerifies)
{
    // The verifier's grammar is strict because the SW scheduler is the
    // only producer of Programs: everything it emits, and every shard
    // sliced from that, must verify.
    const auto verifies = [](const compiler::Program &program,
                             const tfhe::TfheParams &params) {
        std::string error;
        EXPECT_TRUE(compiler::verify(program, params, &error).has_value())
            << error;
    };
    const compiler::Workload apps[] = {
        xgboostWorkload(),   deepCnnWorkload(20), deepCnnWorkload(50),
        deepCnnWorkload(100), vgg9Workload()};
    for (const auto mode : {compiler::InterleaveMode::kRoundRobin,
                            compiler::InterleaveMode::kGroupInterleaved}) {
        for (const unsigned groups : {4u, 16u}) {
            compiler::SchedulerConfig config;
            config.numGroups = groups;
            config.interleave = mode;
            const compiler::SwScheduler set1(tfhe::paramsSetI(), config);
            for (const auto &workload : apps) {
                const auto program = set1.schedule(workload);
                verifies(program, tfhe::paramsSetI());
                for (const unsigned ways : {2u, 3u}) {
                    for (unsigned s = 0; s < ways; ++s) {
                        std::vector<std::uint8_t> owned;
                        for (unsigned g = s; g < groups; g += ways)
                            owned.push_back(static_cast<std::uint8_t>(g));
                        verifies(program.sliceGroups("shard", owned).program,
                                 tfhe::paramsSetI());
                    }
                }
            }
            const compiler::SwScheduler test(tfhe::paramsTest(), config);
            for (std::uint64_t count = 1; count <= 130; ++count)
                verifies(test.scheduleBootstrapBatch(count),
                         tfhe::paramsTest());
        }
    }
}

TEST(CpuModel, PaperNumbersForPublishedSets)
{
    EXPECT_DOUBLE_EQ(paperConcreteCpu(tfhe::paramsSetI()).perPbsMs,
                     15.65);
    EXPECT_DOUBLE_EQ(paperConcreteCpu(tfhe::paramsSetII()).perPbsMs,
                     27.26);
    EXPECT_DOUBLE_EQ(paperConcreteCpu(tfhe::paramsSetIII()).perPbsMs,
                     82.19);
}

TEST(CpuModel, ExtrapolationIsMonotoneInWork)
{
    // Set IV (N=2048, l_b=1) does less work than set III (l_b=3): its
    // extrapolated per-bootstrap time must be smaller.
    const auto iv = paperConcreteCpu(tfhe::paramsSetIV());
    EXPECT_LT(iv.perPbsMs, 82.19);
    EXPECT_GT(iv.perPbsMs, 10.0);
    EXPECT_NE(iv.source.find("extrapolated"), std::string::npos);
}

TEST(CpuModel, ParallelismDividesTime)
{
    CpuCostModel cpu;
    cpu.perPbsMs = 10.0;
    cpu.cores = 64;
    cpu.parallelEff = 0.5;
    // 3200 bootstraps at 10ms over 32 effective cores = 1s.
    EXPECT_NEAR(cpu.pbsSeconds(3200), 1.0, 1e-9);
}

TEST(CpuModel, WorkloadSecondsSumsStages)
{
    CpuCostModel cpu;
    cpu.perPbsMs = 10.0;
    cpu.cores = 1;
    cpu.parallelEff = 1.0;
    cpu.macGops = 1.0;

    compiler::Workload w;
    w.stages.push_back({100, 0});
    w.stages.push_back({0, 1'000'000});
    const double seconds = cpu.workloadSeconds(w, 499);
    EXPECT_NEAR(seconds, 1.0 + 1e6 * 500 / 1e9, 1e-6);
}

TEST(CpuModel, MeasuredModelRunsOnTestParams)
{
    const auto cpu = measuredCpu(tfhe::paramsTest(), 2);
    EXPECT_GT(cpu.perPbsMs, 0.0);
    EXPECT_LT(cpu.perPbsMs, 5000.0);
    EXPECT_EQ(cpu.source, "measured");
}

} // namespace
} // namespace morphling::apps
