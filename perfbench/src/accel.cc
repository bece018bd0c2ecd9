/**
 * @file
 * The cycle-model half of the benchmark: the item list every traced
 * run compiles and simulates once, the Table V model check every run
 * makes, and the metrics both yield.
 */

#include <algorithm>
#include <cmath>
#include <functional>

#include "apps/workload_exec.h"
#include "apps/workloads.h"
#include "compiler/sw_scheduler.h"
#include "exec/sharded_backend.h"
#include "exec/timing_backend.h"
#include "workloads.h"

namespace perfbench {

using namespace morphling;

namespace {

/** Table V, Morphling row (BS/s at sets I-IV). */
struct PaperRow
{
    const char *set;
    double throughputBs;
};
constexpr PaperRow kPaperTable5[] = {
    {"I", 147615}, {"II", 78692}, {"III", 41850}, {"IV", 98933}};

std::vector<double>
signatureOf(const arch::SimReport &r)
{
    return {static_cast<double>(r.cycles),
            static_cast<double>(r.bootstraps),
            r.throughputBs,
            r.xpuBusyFrac,
            r.xpuStallFrac,
            r.vpuBusyFrac,
            static_cast<double>(r.hbmBytes),
            static_cast<double>(r.bskBytes),
            static_cast<double>(r.vpuDmaBytes),
            r.energyPerBsUj};
}

/** One Table V batch: Accelerator::runBootstrapBatch(2048), with the
 *  compile and the simulation timed apart. */
SimItemResult
tableVItem(const char *set)
{
    const arch::ArchConfig cfg = arch::ArchConfig::morphlingDefault();
    const tfhe::TfheParams &params = tfhe::paramsByName(set);
    // The batch geometry Accelerator::runBootstrapBatch uses.
    compiler::SchedulerConfig sched;
    sched.groupSize = cfg.numXpus * cfg.vpeRows;
    sched.numGroups = cfg.maxStreamSets;
    sched.kskReuse = sched.groupSize * sched.numGroups;

    SimItemResult item;
    item.name = std::string("table5-") + set;
    const auto t0 = Clock::now();
    const compiler::Program program =
        compiler::SwScheduler(params, sched).scheduleBootstrapBatch(2048);
    const auto t1 = Clock::now();
    item.report = arch::Accelerator(cfg, params).run(program);
    const auto t2 = Clock::now();
    item.compileMs = msBetween(t0, t1);
    item.runMs = msBetween(t1, t2);
    item.insts = program.size();
    item.bootstraps = item.report.bootstraps;
    item.signature = signatureOf(item.report);
    return item;
}

/** One Table VI application through compileWorkload + TimingBackend
 *  (the apps::timeWorkload path). */
SimItemResult
appItem(const std::string &name, const compiler::Workload &workload,
        const char *set)
{
    const arch::ArchConfig cfg = arch::ArchConfig::morphlingDefault();
    const tfhe::TfheParams &params = tfhe::paramsByName(set);
    SimItemResult item;
    item.name = name;
    const auto t0 = Clock::now();
    const compiler::Program program = apps::compileWorkload(workload, params);
    const auto t1 = Clock::now();
    exec::TimingBackend backend(cfg, params);
    item.report = backend.run(program, exec::Job{}).report;
    const auto t2 = Clock::now();
    item.compileMs = msBetween(t0, t1);
    item.runMs = msBetween(t1, t2);
    item.insts = program.size();
    item.bootstraps = item.report.bootstraps;
    item.signature = signatureOf(item.report);
    return item;
}

/** The 4-shard shared-fabric fleet on a 1024-LWE superbatch against
 *  the 1-shard round-robin baseline (bench_sharded_scaling's pair). */
SimItemResult
fleetItem()
{
    const arch::ArchConfig cfg = arch::ArchConfig::morphlingDefault();
    const tfhe::TfheParams &params = tfhe::paramsSetI();
    constexpr std::uint64_t kBatch = 1024;
    compiler::SchedulerConfig interleaved;
    interleaved.numGroups = 16;
    interleaved.groupSize = 16;
    interleaved.interleave = compiler::InterleaveMode::kGroupInterleaved;

    SimItemResult item;
    item.name = "fleet-4";
    const auto t0 = Clock::now();
    const compiler::Program mono =
        compiler::SwScheduler(params).scheduleBootstrapBatch(kBatch);
    const compiler::Program fleet =
        compiler::SwScheduler(params, interleaved)
            .scheduleBootstrapBatch(kBatch);
    const auto t1 = Clock::now();
    auto monoBackend = exec::ShardedBackend::fleetTiming(cfg, params, 1);
    const arch::SimReport monoReport =
        monoBackend.run(mono, exec::Job{}).report;
    auto fleetBackend = exec::ShardedBackend::fleetTiming(cfg, params, 4);
    item.report = fleetBackend.run(fleet, exec::Job{}).report;
    item.fleet = fleetBackend.fleetReport();
    const auto t2 = Clock::now();
    item.compileMs = msBetween(t0, t1);
    item.runMs = msBetween(t1, t2);
    item.insts = mono.size() + fleet.size();
    item.bootstraps = monoReport.bootstraps + item.report.bootstraps;
    item.fleetSpeedup = static_cast<double>(monoReport.cycles) /
                        static_cast<double>(item.report.cycles);
    item.signature = signatureOf(item.report);
    item.signature.push_back(static_cast<double>(monoReport.cycles));
    item.signature.push_back(item.fleet.broadcastAmortization);
    item.signature.push_back(static_cast<double>(item.fleet.bskFetchedBytes));
    return item;
}

const SimItemResult *
findItem(const std::vector<SimItemResult> &pass, const std::string &name)
{
    for (const SimItemResult &item : pass) {
        if (item.name == name)
            return &item;
    }
    return nullptr;
}

} // namespace

std::vector<SimItemResult>
runSimPass(Spans *spans, bool tableVOnly)
{
    std::vector<std::function<SimItemResult()>> items;
    for (const PaperRow &row : kPaperTable5)
        items.push_back([set = row.set] { return tableVItem(set); });
    if (!tableVOnly) {
        items.push_back([] {
            return appItem("xgboost", apps::xgboostWorkload(100, 6), "IV");
        });
        for (unsigned x : {20u, 50u, 100u}) {
            items.push_back([x] {
                return appItem("deepcnn-" + std::to_string(x),
                               apps::deepCnnWorkload(x), "III");
            });
        }
        items.push_back(
            [] { return appItem("vgg-9", apps::vgg9Workload(), "IV"); });
        items.push_back(fleetItem);
    }

    std::vector<SimItemResult> pass;
    for (const auto &item : items) {
        const auto t0 = Clock::now();
        pass.push_back(item());
        if (spans) {
            spans->add("sim." + pass.back().name, spans->nextId(), 0, t0,
                       Clock::now());
        }
    }
    return pass;
}

void
simEndToEnd(const std::vector<SimItemResult> &pass, Metrics &out)
{
    double worst = 0;
    for (const PaperRow &row : kPaperTable5) {
        const SimItemResult *item =
            findItem(pass, std::string("table5-") + row.set);
        if (item == nullptr)
            continue;
        worst = std::max(worst, std::abs(item->report.throughputBs -
                                         row.throughputBs) /
                                    row.throughputBs);
        if (std::string(row.set) == "I")
            out.set("sim_bs_per_s", item->report.throughputBs, "1/s");
    }
    out.set("sim_err_vs_paper", worst, "frac");
}

void
simLayers(const std::vector<SimItemResult> &pass, Metrics &out)
{
    if (const SimItemResult *set1 = findItem(pass, "table5-I")) {
        const arch::SimReport &r = set1->report;
        out.set("arch.xpu_busy_frac", r.xpuBusyFrac, "frac");
        out.set("arch.xpu_stall_frac", r.xpuStallFrac, "frac");
        out.set("arch.vpu_busy_frac", r.vpuBusyFrac, "frac");
        out.set("arch.hbm_gbs", r.hbmAchievedGBs, "GB/s");
        out.set("arch.bsk_bytes_per_bs",
                static_cast<double>(r.bskBytes) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, r.bootstraps)),
                "B");
        out.set("arch.energy_per_bs_uj", r.energyPerBsUj, "uJ");
    }
    if (const SimItemResult *fleet = findItem(pass, "fleet-4")) {
        out.set("arch.fleet_speedup_4", fleet->fleetSpeedup, "x");
        out.set("arch.fleet_bsk_amortization",
                fleet->fleet.broadcastAmortization, "x");
    }

    std::uint64_t insts = 0;
    double hostMs = 0;
    for (const SimItemResult &item : pass) {
        insts += item.insts;
        hostMs += item.runMs + item.compileMs;
        if (item.name.rfind("table5-", 0) != 0 && item.name != "fleet-4")
            out.set("arch.app_sim_s." + item.name, item.report.seconds, "s");
        out.set("sim.run_host_ms." + item.name, item.runMs, "ms");
        out.set("apps.compile_host_ms." + item.name, item.compileMs, "ms");
    }
    out.set("sim.insts", static_cast<double>(insts), "count");
    out.set("sim.insts_per_host_s", insts / (hostMs / 1e3), "1/s");
}

std::uint64_t
mismatches(const std::vector<SimItemResult> &reference,
           const std::vector<SimItemResult> &pass)
{
    if (reference.size() != pass.size())
        return pass.size();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < pass.size(); ++i) {
        bad += reference[i].name != pass[i].name ||
               reference[i].signature != pass[i].signature ||
               reference[i].insts != pass[i].insts;
    }
    return bad;
}

} // namespace perfbench
