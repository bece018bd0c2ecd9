/**
 * @file
 * Bridge from the cycle simulator to the telemetry trace: while a
 * SimTraceRecorder is installed, the sim/arch component models
 * (XpuComplex busy/stall, VpuModel tasks, Hbm channel transfers,
 * DmaEngine loads, NoC link transfers) report their busy/stall
 * intervals and transactions here in *simulated ticks*, and their
 * point events (an XPU wave starting or completing, the hardware
 * scheduler issuing an instruction or releasing a barrier, a multicast
 * DMA join, residency hit or fetch) as instants on the "log.xpu",
 * "log.sched" and "log.dma" tracks.
 * The Chrome exporter (chrome_trace.h) then renders them as
 * virtual-time tracks in the same trace file as the wall-clock CPU
 * spans, so a simulated Morphling pipeline and the real service path
 * are inspectable with one tool.
 *
 * The recorder is an explicit, scoped opt-in: construct one, call
 * install(), run the simulation, uninstall() (or let the destructor
 * do it). Nothing records while no recorder is installed, and with
 * MORPHLING_TELEMETRY=OFF the component hooks compile to nothing.
 *
 * Thread safety: recording is mutex-guarded. One simulation is
 * single-threaded, but several may record at once: ShardedBackend runs
 * its private-memory shards on their own threads, and service workers
 * run kCosim backends side by side.
 */

#ifndef MORPHLING_TELEMETRY_SIM_BRIDGE_H
#define MORPHLING_TELEMETRY_SIM_BRIDGE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace morphling::telemetry {

/** Collects simulated-time intervals and instants for export. */
class SimTraceRecorder
{
  public:
    /** One busy/transfer interval on a named virtual track. */
    struct Interval
    {
        std::string track; //!< e.g. "xpu", "hbm.ch0", "vpu_dma"
        std::string name;  //!< e.g. "iteration", "xfer", "bsk_stall"
        std::uint64_t startTick = 0;
        std::uint64_t endTick = 0;
        std::uint64_t bytes = 0; //!< payload size, 0 when n/a
    };

    /** One point event on a "log.<component>" track. */
    struct Instant
    {
        std::string track;
        std::string name;
        std::uint64_t tick = 0;
    };

    explicit SimTraceRecorder(std::size_t max_events = 1u << 20);
    ~SimTraceRecorder(); //!< uninstalls if still installed

    SimTraceRecorder(const SimTraceRecorder &) = delete;
    SimTraceRecorder &operator=(const SimTraceRecorder &) = delete;

    /** Make this the process-wide recorder the component hooks see. */
    void install();
    void uninstall();

    /** The installed recorder, or nullptr. */
    static SimTraceRecorder *current();

    void interval(std::string track, std::string name,
                  std::uint64_t start_tick, std::uint64_t end_tick,
                  std::uint64_t bytes = 0);
    void instant(std::string track, std::string name,
                 std::uint64_t tick);

    /** Snapshots (copies) for the exporter. */
    std::vector<Interval> intervals() const;
    std::vector<Instant> instants() const;

    /** Events discarded after max_events was reached. */
    std::uint64_t droppedEvents() const;

  private:
    bool roomLocked();

    mutable std::mutex mu_;
    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::vector<Interval> intervals_;
    std::vector<Instant> instants_;
};

} // namespace morphling::telemetry

#if MORPHLING_TELEMETRY_ENABLED

/** Component hook: record a virtual-time interval when a recorder is
 *  installed; compiles to nothing under MORPHLING_TELEMETRY=OFF. */
#define MORPHLING_SIM_INTERVAL(track, name, start, end, bytes)            \
    do {                                                                  \
        if (auto *morphlingSimRec_ =                                      \
                ::morphling::telemetry::SimTraceRecorder::current()) {    \
            morphlingSimRec_->interval((track), (name), (start), (end),   \
                                       (bytes));                          \
        }                                                                 \
    } while (0)

#define MORPHLING_SIM_INSTANT(track, name, tick)                          \
    do {                                                                  \
        if (auto *morphlingSimRec_ =                                      \
                ::morphling::telemetry::SimTraceRecorder::current()) {    \
            morphlingSimRec_->instant((track), (name), (tick));           \
        }                                                                 \
    } while (0)

#else

#define MORPHLING_SIM_INTERVAL(track, name, start, end, bytes)            \
    static_cast<void>(0)
#define MORPHLING_SIM_INSTANT(track, name, tick) static_cast<void>(0)

#endif // MORPHLING_TELEMETRY_ENABLED

#endif // MORPHLING_TELEMETRY_SIM_BRIDGE_H
