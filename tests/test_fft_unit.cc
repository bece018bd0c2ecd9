/**
 * @file
 * Tests of the pipelined FFT-unit model: issue intervals, pipeline
 * overlap, fill latency, and agreement with the pass-slot abstraction
 * used by the round-timing model.
 */

#include <gtest/gtest.h>

#include "arch/fft_unit.h"
#include "arch/timing.h"
#include "tfhe/params.h"

namespace morphling::arch {
namespace {

TEST(PipelinedFftUnit, Geometry)
{
    PipelinedFftUnit unit(1024, 8);
    EXPECT_EQ(unit.stages(), 9u); // log2(512)
    EXPECT_EQ(unit.issueInterval(), 64u);
    EXPECT_EQ(unit.fillLatency(), 9u + 63u);
}

TEST(PipelinedFftUnit, BackToBackPassesSustainIssueInterval)
{
    PipelinedFftUnit unit(1024, 8);
    sim::Tick prev_start = 0;
    for (int p = 0; p < 10; ++p) {
        const auto t = unit.issuePass(0);
        if (p > 0) {
            EXPECT_EQ(t.issueStart - prev_start, 64u);
        }
        prev_start = t.issueStart;
    }
    EXPECT_EQ(unit.passes(), 10u);
    // Total streaming occupancy equals the pass-slot model.
    EXPECT_EQ(unit.inputFreeAt(),
              PipelinedFftUnit::throughputCycles(1024, 8, 10));
}

TEST(PipelinedFftUnit, PipelineOverlapsDrainWithNextIssue)
{
    PipelinedFftUnit unit(2048, 8);
    const auto first = unit.issuePass(0);
    const auto second = unit.issuePass(0);
    // The second pass starts issuing while the first still drains.
    EXPECT_LT(second.issueStart, first.lastOutput);
    // Outputs keep streaming one pass per interval.
    EXPECT_EQ(second.firstOutput - first.firstOutput,
              unit.issueInterval());
}

TEST(PipelinedFftUnit, IdleUnitStartsImmediately)
{
    PipelinedFftUnit unit(512, 8);
    const auto t = unit.issuePass(100);
    EXPECT_EQ(t.issueStart, 100u);
    EXPECT_EQ(t.firstOutput, 100 + unit.fillLatency());
}

TEST(PipelinedFftUnit, MatchesRoundTimingPassCycles)
{
    // The round model's passCycles must equal this unit's issue
    // interval for every parameter set.
    const auto cfg = ArchConfig::morphlingDefault();
    for (const auto &params : tfhe::allParamSets()) {
        PipelinedFftUnit unit(params.polyDegree, cfg.vectorLanes);
        const auto round = epRoundTiming(params, cfg, 4);
        EXPECT_EQ(round.passCycles, unit.issueInterval())
            << params.name;
    }
}

TEST(PipelinedFftUnit, FillLatencyNegligibleAgainstBlindRotation)
{
    // The pipeline fill is paid once per wave, not per pass: it must
    // be orders of magnitude below a bootstrap's cycle count.
    for (const auto &params : tfhe::allParamSets()) {
        PipelinedFftUnit unit(params.polyDegree, 8);
        const auto est = estimateBootstrap(
            params, ArchConfig::morphlingDefault());
        EXPECT_LT(unit.fillLatency() * 100.0,
                  static_cast<double>(est.latencyCycles))
            << params.name;
    }
}

} // namespace
} // namespace morphling::arch
