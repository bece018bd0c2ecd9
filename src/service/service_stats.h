/**
 * @file
 * Point-in-time statistics snapshot of a BootstrapService.
 *
 * The service accumulates its counters and distributions directly in
 * one ServiceStats member guarded by the service mutex; stats() copies
 * it and fills in the instantaneous fields, so readers never race the
 * worker threads.
 */

#ifndef MORPHLING_SERVICE_SERVICE_STATS_H
#define MORPHLING_SERVICE_SERVICE_STATS_H

#include <cstdint>

#include "sim/stats.h"

namespace morphling::service {

/** A consistent snapshot of service counters (plain value type). */
struct ServiceStats
{
    // --- request lifecycle counters -----------------------------------
    std::uint64_t accepted = 0;   //!< requests admitted past backpressure
    std::uint64_t rejected = 0;   //!< trySubmit refusals (queue full)
    std::uint64_t completed = 0;  //!< promises fulfilled
    std::uint64_t failed = 0;     //!< promises failed by the backend

    // --- superbatch counters ------------------------------------------
    std::uint64_t superbatches = 0;  //!< batches dispatched in total
    std::uint64_t fullBatches = 0;   //!< dispatched at superbatchSize
    std::uint64_t timerFlushes = 0;  //!< partial, shipped by max-wait
    std::uint64_t drainFlushes = 0;  //!< partial, shipped by shutdown
    std::uint64_t deadlineMisses = 0; //!< dispatched past their deadline

    // --- circuit submissions ------------------------------------------
    std::uint64_t circuits = 0;          //!< circuits accepted
    std::uint64_t circuitsCompleted = 0; //!< circuit promises fulfilled
    std::uint64_t circuitsFailed = 0;    //!< circuit promises failed
    std::uint64_t circuitBootstraps = 0; //!< bootstraps retired in circuits

    // --- program disk cache (all 0 without programCacheDir) -----------
    std::uint64_t programCacheHits = 0;    //!< programs loaded from disk
    std::uint64_t programCacheMisses = 0;  //!< no file yet: compiled
    std::uint64_t programCacheRejects = 0; //!< unusable file: recompiled

    // --- instantaneous state ------------------------------------------
    std::uint64_t pending = 0;     //!< accepted, not yet in a batch
    std::uint64_t outstanding = 0; //!< accepted, not yet completed
    std::uint64_t luts = 0;        //!< LUT ids registered, not reclaimed
    double elapsedSeconds = 0;     //!< service lifetime so far

    // --- distributions (sim/stats histograms) -------------------------
    sim::Histogram occupancy;        //!< requests per dispatched batch
    sim::Histogram queueLatencyUs;   //!< submit -> batch assembly
    sim::Histogram batchLatencyUs;   //!< batch assembly -> completion
    sim::Histogram requestLatencyUs; //!< submit -> completion
    sim::Histogram circuitLatencyUs; //!< submitCircuit -> completion

    /** Sustained completion rate over the service lifetime. */
    double
    throughputBs() const
    {
        return elapsedSeconds > 0 ? completed / elapsedSeconds : 0.0;
    }

    /** Mean batch fill as a fraction of the configured size. */
    double
    meanOccupancy(unsigned superbatch_size) const
    {
        if (superbatch_size == 0 || occupancy.count() == 0)
            return 0.0;
        return occupancy.mean() / superbatch_size;
    }
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_SERVICE_STATS_H
