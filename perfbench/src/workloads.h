/**
 * @file
 * The benchmark's workloads, the layer-peel probe and the cycle-model
 * item list. main.cc drives them; docs beside the benchmark
 * (perfbench/README.md) say why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "arch/fleet.h"
#include "service/service_stats.h"
#include "support.h"

namespace perfbench {

/** What one timed window of a workload produced. */
struct WindowResult
{
    std::uint64_t attempted = 0;  //!< requests submitted
    std::uint64_t failed = 0;     //!< refused, threw, or wrong
    std::uint64_t wrong = 0;      //!< wrong decryptions
    std::uint64_t bootstraps = 0; //!< completed
    double elapsedS = 0;          //!< window start to last completion
    /** Completions over the window. A total, not a median: it averages
     *  over whichever host cores ran slow. */
    double bsPerS = 0;
    std::vector<double> latencyMs; //!< one per request
    std::vector<double> jobMs; //!< one per multi-bootstrap job
    std::vector<double> genLagMs; //!< open loop: submit minus due time
    std::string overload; //!< non-empty when the backlog grew
};

/**
 * One benchmark workload. setup() builds everything from the seed and
 * warms up; run() measures one window; windowLayers() adds the
 * per-layer numbers the last window's own stats show.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(std::uint64_t seed) = 0;

    /** Measure for about `seconds`, then drain what is in flight.
     *  Records request spans when `spans` is non-null. */
    virtual WindowResult run(double seconds, Spans *spans) = 0;

    /** Per-layer counters of the last run() (service and
     *  remote-server stats), over the probe's values. */
    virtual void windowLayers(Metrics &out) const = 0;

    /** Keys and inputs the layer probe pushes through every entry
     *  point. */
    virtual const Kit &kit() const = 0;
};

/** The workload of a name, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/**
 * Push a sample of the kit's inputs through each entry point in turn
 * (stage functions -> batchBootstrap -> FunctionalBackend ->
 * CircuitExecutor -> BootstrapService -> MultiTenantService ->
 * loopback RemoteBackend) and record each layer's added time, one span
 * per call, with servingWorkers() workers wherever a layer runs in
 * parallel. Returns false on a wrong decryption.
 */
bool probeLayers(const Kit &kit, Spans *spans, Metrics &out);

/** Record the service counters between two stats() snapshots as the
 *  service.* per-layer metrics. */
void serviceLayers(const morphling::service::ServiceStats &before,
                   const morphling::service::ServiceStats &after,
                   Metrics &out);

// --- cycle model --------------------------------------------------------

/** One cycle-model item's outcome in one pass. */
struct SimItemResult
{
    std::string name;
    double compileMs = 0;
    double runMs = 0;
    std::uint64_t insts = 0;      //!< instructions retired by the model
    std::uint64_t bootstraps = 0; //!< bootstraps modelled
    morphling::arch::SimReport report;
    morphling::arch::FleetReport fleet; //!< fleet item only
    double fleetSpeedup = 0;            //!< fleet item only
    /** Every simulated statistic the pass-to-pass check compares. */
    std::vector<double> signature;
};

/** Set-I Table V throughput as bench_table5_bootstrap prints it; a
 *  model change that moves it is a change of record. */
inline constexpr std::uint64_t kTable5SetIBs = 144961;

/**
 * The cycle-model item list: Table V batches at sets I-IV, the
 * Table VI applications, and the 4-shard shared-fabric fleet.
 * `tableVOnly` keeps the four Table V batches (the model check every
 * run makes).
 */
std::vector<SimItemResult> runSimPass(Spans *spans, bool tableVOnly);

/** sim_bs_per_s and sim_err_vs_paper from a pass's Table V items. */
void simEndToEnd(const std::vector<SimItemResult> &pass, Metrics &out);

/** arch.*, sim.* and apps.* per-layer metrics of one pass. */
void simLayers(const std::vector<SimItemResult> &pass, Metrics &out);

/** Items of `pass` whose simulated statistics differ from
 *  `reference`'s. */
std::uint64_t mismatches(const std::vector<SimItemResult> &reference,
                         const std::vector<SimItemResult> &pass);

/** @{ The serving workloads (serving.cc). */
std::unique_ptr<Workload> makePbsSet1();
std::unique_ptr<Workload> makeRemoteTrickle();
/** @} */

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
