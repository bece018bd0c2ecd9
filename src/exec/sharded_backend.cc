#include "sharded_backend.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/sim_bridge.h"
#include "telemetry/telemetry.h"

namespace morphling::exec {

using compiler::Opcode;

ShardedBackend
ShardedBackend::timing(const arch::ArchConfig &config,
                       const tfhe::TfheParams &params,
                       unsigned numShards)
{
    if (numShards == 0)
        throw std::invalid_argument("sharded backend needs >= 1 shard");
    ShardedBackend b;
    b.params_ = &params;
    b.shards_.reserve(numShards);
    for (unsigned s = 0; s < numShards; ++s)
        b.shards_.push_back(std::make_unique<TimingBackend>(config, params));
    return b;
}

ShardedBackend
ShardedBackend::fleetTiming(const arch::ArchConfig &config,
                            const tfhe::TfheParams &params,
                            unsigned numShards)
{
    if (numShards == 0)
        throw std::invalid_argument("sharded backend needs >= 1 shard");
    ShardedBackend b;
    b.fleetMode_ = true;
    b.fleetShards_ = numShards;
    b.fleetConfig_ = config;
    b.params_ = &params;
    return b;
}

const compiler::ProgramSlice &
ShardedBackend::slice(unsigned s) const
{
    panic_if(s >= slices_.size(), "shard ", s, " out of range");
    return slices_[s];
}

const TimingBackend &
ShardedBackend::shardBackend(unsigned s) const
{
    panic_if(s >= shards_.size(), "shard ", s, " out of range");
    return *shards_[s];
}

ExecutionResult
ShardedBackend::run(const compiler::Program &program, const Job &)
{
    MORPHLING_SPAN("exec", "sharded.run");
    compiler::verifyOrThrow(program, *params_);
    slices_.clear();
    stats_.clear();
    makespan_ = 0;
    fleetReport_ = arch::FleetReport{};
    shardCompletions_.clear();

    const unsigned n_shards = numShards();
    const unsigned n_groups = program.numGroups();

    // Round-robin shard assignment by group id. Every shard gets at
    // least one (possibly empty) group stream so the fan-out below is
    // uniform in shard count.
    slices_.reserve(n_shards);
    for (unsigned s = 0; s < n_shards; ++s) {
        std::vector<std::uint8_t> groups;
        for (unsigned g = s; g < std::max(n_groups, n_shards);
             g += n_shards)
            groups.push_back(static_cast<std::uint8_t>(g));
        slices_.push_back(program.sliceGroups(
            program.name() + "/shard" + std::to_string(s), groups));
    }

    // Fan out. Private-memory shards run on their own threads against
    // their own accelerators; fleet shards advance together in one
    // shared-fabric event queue.
    std::vector<ExecutionResult> results(n_shards);
    stats_.resize(n_shards);
    if (fleetMode_)
        runShardsFleet(results);
    else
        runShardsThreaded(results);

    ExecutionResult merged;
    merged.backend = name();
    MORPHLING_TELEMETRY_ONLY(
        const auto merge0 = std::chrono::steady_clock::now();)
    {
        MORPHLING_SPAN("exec", "sharded.merge");
        merged.retired = mergeRetirement(program, results);
        mergeReports(results, merged);
    }

    MORPHLING_TELEMETRY_ONLY({
        auto &reg = telemetry::MetricsRegistry::instance();
        reg.counter("exec.sharded.runs", "sharded program executions")
            .inc();
        reg.gauge("exec.sharded.shards", "shards in the last run")
            .set(static_cast<double>(n_shards));
        const double total =
            std::max<double>(1.0, static_cast<double>(program.size()));
        for (unsigned s = 0; s < n_shards; ++s) {
            reg.gauge("exec.sharded.shard" + std::to_string(s) +
                          ".occupancy",
                      "fraction of the program's instructions this "
                      "shard executed in the last run")
                .set(static_cast<double>(stats_[s].instructions) /
                     total);
        }
        reg.histogram("exec.sharded.merge_latency_us",
                      "per-shard retirement logs -> global program "
                      "order")
            .observe(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - merge0)
                         .count());
        // Per-shard virtual-time tracks: one interval per shard
        // spanning its local makespan, rendered next to the
        // per-component tracks in the Chrome trace.
        for (unsigned s = 0; s < n_shards; ++s) {
            if (stats_[s].hasReport) {
                MORPHLING_SIM_INTERVAL(
                    "sharded.shard" + std::to_string(s), "makespan",
                    0, stats_[s].cycles, 0);
            }
        }
    })

    return merged;
}

void
ShardedBackend::runShardsThreaded(std::vector<ExecutionResult> &results)
{
    const unsigned n_shards = numShards();
    auto run_shard = [&](unsigned s) {
        MORPHLING_SPAN("exec", "sharded.shard");
        results[s] = shards_[s]->run(slices_[s].program, Job{});
        auto &st = stats_[s];
        st.shard = s;
        st.groups = slices_[s].groups;
        st.instructions = slices_[s].program.size();
        st.blindRotations = slices_[s].program.totalBlindRotations();
        st.hasReport = results[s].hasReport;
        st.cycles = results[s].hasReport ? results[s].report.cycles : 0;
    };
    if (n_shards == 1) {
        run_shard(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n_shards);
        for (unsigned s = 0; s < n_shards; ++s)
            pool.emplace_back(run_shard, s);
        for (auto &t : pool)
            t.join();
    }
}

void
ShardedBackend::runShardsFleet(std::vector<ExecutionResult> &results)
{
    MORPHLING_SPAN("exec", "sharded.fleet");
    const unsigned n_shards = numShards();
    arch::AcceleratorFleet fleet(fleetConfig_, *params_, n_shards);
    std::vector<const compiler::Program *> programs;
    std::vector<arch::RetireHook> hooks;
    programs.reserve(n_shards);
    hooks.reserve(n_shards);
    shardCompletions_.assign(n_shards, {});
    for (unsigned s = 0; s < n_shards; ++s) {
        programs.push_back(&slices_[s].program);
        auto &log = shardCompletions_[s];
        log.reserve(slices_[s].program.size());
        hooks.push_back([&log](std::size_t index,
                               const compiler::Instruction &inst,
                               std::uint64_t tick) {
            RetiredInstruction r;
            r.index = index;
            r.inst = inst;
            r.seq = log.size();
            r.tick = tick;
            log.push_back(r);
        });
    }
    fleetReport_ = fleet.run(programs, hooks);

    for (unsigned s = 0; s < n_shards; ++s) {
        results[s].backend = "fleet-timing";
        results[s].retired = architecturalRetirement(
            slices_[s].program, shardCompletions_[s]);
        results[s].hasReport = slices_[s].program.size() > 0;
        results[s].report = fleetReport_.shards[s];
        auto &st = stats_[s];
        st.shard = s;
        st.groups = slices_[s].groups;
        st.instructions = slices_[s].program.size();
        st.blindRotations = slices_[s].program.totalBlindRotations();
        st.hasReport = results[s].hasReport;
        st.cycles = results[s].hasReport ? results[s].report.cycles : 0;
    }
}

std::vector<RetiredInstruction>
ShardedBackend::mergeRetirement(const compiler::Program &program,
                                const std::vector<ExecutionResult> &results)
    const
{
    const unsigned n_groups = program.numGroups();
    // Per-group queues in global coordinates. Each shard retires its
    // groups in program order (the retirement contract), so a group's
    // queue is its stream in program order no matter how the shard
    // interleaved its groups.
    std::vector<std::vector<RetiredInstruction>> queue(n_groups);
    for (unsigned s = 0; s < numShards(); ++s) {
        const auto &slice = slices_[s];
        panic_if(results[s].retired.size() != slice.program.size(),
                 "shard ", s, " retired ", results[s].retired.size(),
                 " of ", slice.program.size(), " instructions");
        for (const auto &r : results[s].retired) {
            panic_if(r.index >= slice.globalIndex.size(),
                     "shard ", s, " retired out-of-range index ",
                     r.index);
            const std::size_t gi = slice.globalIndex[r.index];
            RetiredInstruction global = r;
            global.index = gi;
            global.inst = program.at(gi);
            queue[global.inst.group].push_back(global);
        }
    }

    // Deterministic interleave, reproducing FunctionalBackend's
    // retirement order exactly: per barrier-delimited segment,
    // groups ascending, program order within a group, then the
    // segment's barrier retirements in group order.
    std::vector<RetiredInstruction> merged;
    merged.reserve(program.size());
    std::vector<std::size_t> head(n_groups, 0);
    auto emit = [&](const RetiredInstruction &r) {
        merged.push_back(r);
        merged.back().seq = merged.size() - 1;
    };
    while (merged.size() < program.size()) {
        for (unsigned g = 0; g < n_groups; ++g) {
            auto &q = queue[g];
            while (head[g] < q.size() &&
                   q[head[g]].inst.op != Opcode::Barrier)
                emit(q[head[g]++]);
        }
        bool released = false;
        for (unsigned g = 0; g < n_groups; ++g) {
            auto &q = queue[g];
            if (head[g] < q.size() &&
                q[head[g]].inst.op == Opcode::Barrier) {
                emit(q[head[g]++]);
                released = true;
            }
        }
        if (!released && merged.size() < program.size())
            panic("sharded merge stalled at ", merged.size(), " of ",
                  program.size(), " instructions");
    }
    return merged;
}

void
ShardedBackend::mergeReports(const std::vector<ExecutionResult> &results,
                             ExecutionResult &merged)
{
    // Fleet view over the shards: the run finishes when the
    // slowest shard does (makespan = max), work counters sum across
    // chips, utilizations are re-derived against the fleet makespan.
    // Per-chip detail stays available through shardStats() and the
    // shard backends.
    const ExecutionResult *first = nullptr;
    unsigned reporting = 0;
    std::uint64_t bootstraps = 0;
    for (const auto &r : results) {
        if (!r.hasReport)
            continue;
        if (reporting == 0)
            first = &r;
        ++reporting;
        makespan_ = std::max(makespan_, r.report.cycles);
        bootstraps += r.report.bootstraps;
    }
    if (first == nullptr)
        return;

    arch::SimReport fleet = first->report; // param echo, breakdown maps
    fleet.cycles = makespan_;
    fleet.seconds = 0;
    fleet.bootstraps = bootstraps;
    fleet.hbmBytes = 0;
    fleet.bskBytes = 0;
    fleet.vpuDmaBytes = 0;
    fleet.vpuKsCycles = 0;
    fleet.vpuMsCycles = 0;
    fleet.vpuSeCycles = 0;
    fleet.vpuPaluCycles = 0;
    fleet.xpuBusyCycles = 0;
    fleet.xpuStallCycles = 0;
    fleet.chipPowerW = 0;
    fleet.nocAggregateTBs = 0;
    fleet.pipelineLatencyMs = 0;
    fleet.meanChunkLatencyMs = 0;
    for (const auto &r : results) {
        if (!r.hasReport)
            continue;
        const auto &rep = r.report;
        fleet.seconds = std::max(fleet.seconds, rep.seconds);
        fleet.hbmBytes += rep.hbmBytes;
        fleet.bskBytes += rep.bskBytes;
        fleet.vpuDmaBytes += rep.vpuDmaBytes;
        fleet.vpuKsCycles += rep.vpuKsCycles;
        fleet.vpuMsCycles += rep.vpuMsCycles;
        fleet.vpuSeCycles += rep.vpuSeCycles;
        fleet.vpuPaluCycles += rep.vpuPaluCycles;
        fleet.xpuBusyCycles += rep.xpuBusyCycles;
        fleet.xpuStallCycles += rep.xpuStallCycles;
        fleet.chipPowerW += rep.chipPowerW;
        fleet.nocAggregateTBs += rep.nocAggregateTBs;
        fleet.pipelineLatencyMs =
            std::max(fleet.pipelineLatencyMs, rep.pipelineLatencyMs);
        fleet.meanChunkLatencyMs =
            std::max(fleet.meanChunkLatencyMs, rep.meanChunkLatencyMs);
    }
    const double span_cycles = static_cast<double>(
        std::max<std::uint64_t>(1, makespan_) * reporting);
    fleet.xpuBusyFrac =
        static_cast<double>(fleet.xpuBusyCycles) / span_cycles;
    fleet.xpuStallFrac =
        static_cast<double>(fleet.xpuStallCycles) / span_cycles;
    if (fleet.seconds > 0) {
        fleet.throughputBs =
            static_cast<double>(fleet.bootstraps) / fleet.seconds;
        fleet.hbmAchievedGBs =
            static_cast<double>(fleet.hbmBytes) / fleet.seconds / 1e9;
        if (fleet.bootstraps > 0) {
            fleet.energyPerBsUj = fleet.chipPowerW * fleet.seconds /
                                  static_cast<double>(fleet.bootstraps) *
                                  1e6;
        }
    }
    merged.report = fleet;
    merged.hasReport = true;
}

} // namespace morphling::exec
