/**
 * @file
 * Scaling of exec::ShardedBackend in the cycle model: one 4-group
 * 64-LWE superbatch split across N accelerators with private memory,
 * then a 1024-LWE superbatch on N accelerators sharing one memory
 * fabric (arch::AcceleratorFleet), and the BSK prefetch ablation of
 * that fleet. Every row is a deterministic virtual-time cycle count.
 */

#include <iostream>

#include "bench_util.h"
#include "compiler/sw_scheduler.h"
#include "exec/sharded_backend.h"

using namespace morphling;

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "sharded_scaling");
    const unsigned shard_counts[] = {1, 2, 4};

    // One superbatch split across N independent simulated
    // accelerators. A 16-LWE group slice keeps
    // the full BSK stream, so virtual-time scaling saturates well
    // below Nx — the honest reason multi-accelerator throughput comes
    // from sharding the *request stream*, not one superbatch.
    bench::banner("Sharded makespan (cycle model, set I)",
                  "one superbatch split across N simulated "
                  "accelerators");
    const auto &sim_params = tfhe::paramsSetI();
    const auto cfg = arch::ArchConfig::morphlingDefault();
    const auto sim_program =
        compiler::SwScheduler(sim_params).scheduleBootstrapBatch(64);
    std::uint64_t mono_cycles = 0;
    Table sim_t({"Shards", "Makespan (cycles)", "Virtual speedup"});
    for (const unsigned n : shard_counts) {
        auto backend =
            exec::ShardedBackend::timing(cfg, sim_params, n);
        const auto result = backend.run(sim_program, exec::Job{});
        if (n == 1)
            mono_cycles = result.report.cycles;
        const double speedup =
            static_cast<double>(mono_cycles) /
            static_cast<double>(result.report.cycles);
        sim_t.addRow({std::to_string(n),
                      Table::fmtCount(result.report.cycles),
                      bench::times(speedup, 2)});
        report.add("makespan_cycles",
                   "set I, shards=" + std::to_string(n),
                   static_cast<double>(result.report.cycles),
                   "cycles");
    }
    sim_t.print(std::cout);
    bench::note("virtual speedup is BSK-streaming bound: each "
                "accelerator still streams the whole bootstrapping "
                "key for its groups");

    // The shared-fabric view (arch::AcceleratorFleet): the same
    // request stream, N accelerators on one HBM. The 16-group
    // group-interleaved schedule gives every shard all four VPU lane
    // groups and phase-aligns the shards on the same blind-rotation
    // slice, so each BSK_i is fetched from HBM once and broadcast to
    // all N consumers; double-buffered prefetch hides the stream
    // behind compute. Virtual time is all on one shared clock, so the
    // makespan comparison is exact. A 1024-LWE superbatch keeps each
    // shard deep enough in chunks that the pipeline fill/drain tail
    // does not dominate.
    bench::banner("Shared-HBM fleet makespan (cycle model, set I)",
                  "1024-LWE superbatch, N accelerators on one memory "
                  "fabric with BSK broadcast");
    constexpr std::uint64_t kFleetBatch = 1024;
    const auto mono_ref_program =
        compiler::SwScheduler(sim_params).scheduleBootstrapBatch(
            kFleetBatch);
    compiler::SchedulerConfig ileave_cfg;
    ileave_cfg.numGroups = 16;
    ileave_cfg.groupSize = 16;
    ileave_cfg.interleave = compiler::InterleaveMode::kGroupInterleaved;
    const auto fleet_program =
        compiler::SwScheduler(sim_params, ileave_cfg)
            .scheduleBootstrapBatch(kFleetBatch);
    std::uint64_t mono_ref = 0;
    {
        auto backend =
            exec::ShardedBackend::fleetTiming(cfg, sim_params, 1);
        mono_ref = backend.run(mono_ref_program, exec::Job{})
                       .report.cycles;
        report.add("mono_makespan_cycles", "set I, 4x16 round-robin",
                   static_cast<double>(mono_ref), "cycles");
    }
    Table fleet_t({"Shards", "Private (cycles)", "Fleet (cycles)",
                   "Fleet speedup", "BSK traffic saved", "XPU stall"});
    for (const unsigned n : shard_counts) {
        auto priv =
            exec::ShardedBackend::timing(cfg, sim_params, n);
        const auto priv_result = priv.run(fleet_program, exec::Job{});
        auto backend =
            exec::ShardedBackend::fleetTiming(cfg, sim_params, n);
        const auto result = backend.run(fleet_program, exec::Job{});
        const auto &fr = backend.fleetReport();
        const double speedup =
            static_cast<double>(mono_ref) /
            static_cast<double>(result.report.cycles);
        const double traffic_saved =
            fr.bskFetchedBytes > 0
                ? static_cast<double>(priv_result.report.bskBytes) /
                      static_cast<double>(fr.bskFetchedBytes)
                : 1.0;
        fleet_t.addRow({std::to_string(n),
                        Table::fmtCount(priv_result.report.cycles),
                        Table::fmtCount(result.report.cycles),
                        bench::times(speedup, 2),
                        bench::times(traffic_saved, 2),
                        Table::fmt(result.report.xpuStallFrac * 100, 1) +
                            "%"});
        const std::string params = "set I, shards=" + std::to_string(n);
        report.add("private_makespan_cycles", params,
                   static_cast<double>(priv_result.report.cycles),
                   "cycles");
        report.add("fleet_makespan_cycles", params,
                   static_cast<double>(result.report.cycles), "cycles");
        report.add("fleet_speedup", params, speedup, "x");
        report.add("fleet_broadcast_amortization", params,
                   fr.broadcastAmortization, "x");
        report.add("fleet_bsk_fetched_bytes", params,
                   static_cast<double>(fr.bskFetchedBytes), "bytes");
        report.add("fleet_bsk_delivered_bytes", params,
                   static_cast<double>(fr.bskDeliveredBytes), "bytes");
        report.add("fleet_xpu_stall_frac", params,
                   result.report.xpuStallFrac, "frac");
    }
    fleet_t.print(std::cout);
    bench::note("fleet speedup is vs the 4x16 round-robin mono "
                "schedule (best single-accelerator baseline); private "
                "columns run the same interleaved program on N "
                "private memory systems");
    bench::note("virtual-time makespans on a shared clock: the "
                "makespan projection is the deployment claim");

    // Prefetch ablation: with the double buffer off (depth 1) the XPU
    // waits for every BSK slice; depth 2 hides the stream entirely.
    bench::banner("BSK prefetch ablation (4-shard fleet, set I)",
                  "bskPrefetchDepth 1 (serial fetch) vs 2 (double "
                  "buffer)");
    Table ab_t({"Depth", "Makespan (cycles)", "XPU stall"});
    for (const unsigned depth : {1u, 2u}) {
        auto ab_cfg = cfg;
        ab_cfg.bskPrefetchDepth = depth;
        auto backend =
            exec::ShardedBackend::fleetTiming(ab_cfg, sim_params, 4);
        const auto result = backend.run(fleet_program, exec::Job{});
        ab_t.addRow({std::to_string(depth),
                     Table::fmtCount(result.report.cycles),
                     Table::fmt(result.report.xpuStallFrac * 100, 1) +
                         "%"});
        const std::string params =
            "set I, shards=4, depth=" + std::to_string(depth);
        report.add("prefetch_makespan_cycles", params,
                   static_cast<double>(result.report.cycles), "cycles");
        report.add("prefetch_xpu_stall_frac", params,
                   result.report.xpuStallFrac, "frac");
    }
    ab_t.print(std::cout);
    return 0;
}
