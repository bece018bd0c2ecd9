/**
 * @file
 * Per-tenant service-level accounting: admission quota knobs, the
 * point-in-time statistics snapshot a tenant front door reports, and
 * quantile estimation over the telemetry histograms that back it.
 *
 * Latency distributions live in telemetry::Histogram (log-bucketed,
 * lock-free, scrapeable), not sim::Histogram — the tenant layer needs
 * p50/p99 for SLO reporting, which the power-of-two buckets estimate
 * to within one bucket boundary (docs/service.md).
 */

#ifndef MORPHLING_SERVICE_TENANT_STATS_H
#define MORPHLING_SERVICE_TENANT_STATS_H

#include <algorithm>
#include <cstdint>
#include <string>

#include "telemetry/metrics.h"

namespace morphling::service {

/** Tenants are named; the name keys the registry, the quota table and
 *  every exported per-tenant metric. */
using TenantId = std::string;

/**
 * Admission and scheduling quota of one tenant. The token bucket is
 * denominated in bootstraps (a circuit draws its bootstrapCount() at
 * once), so one flooding tenant exhausts its own bucket instead of the
 * shared maxOutstanding bound — the trickle tenant next to it keeps
 * its own refill rate regardless.
 */
struct TenantQuota
{
    /** Sustained admission rate in bootstraps per second;
     *  0 disables throttling for this tenant. */
    double ratePerSec = 0;

    /** Token-bucket depth in bootstraps: the burst admitted at full
     *  rate before the bucket must refill. */
    double burst = 128;

    /** Deficit-round-robin weight of the tenant's lane (>= 1):
     *  backlogged tenants share the worker pool by weight, and a
     *  tenant alone uses all of it. */
    unsigned weight = 1;

    /** Request-latency objective in microseconds; completions slower
     *  than this bump TenantStats::sloBreaches. 0 disables tracking. */
    double sloLatencyUs = 0;
};

/** A consistent snapshot of one tenant's counters (plain value type). */
struct TenantStats
{
    TenantId tenant;

    std::uint64_t submitted = 0;      //!< submissions forwarded
    std::uint64_t throttled = 0;      //!< admission-control refusals
    std::uint64_t completed = 0;      //!< promises fulfilled
    std::uint64_t bootstraps = 0;     //!< bootstraps retired
    std::uint64_t sloBreaches = 0;    //!< completions past sloLatencyUs
    std::uint64_t deadlineMisses = 0; //!< dispatched past a deadline

    double meanLatencyUs = 0;
    double p50LatencyUs = 0; //!< log-bucket estimate (upper bound)
    double p99LatencyUs = 0; //!< log-bucket estimate (upper bound)
};

/**
 * Estimate the q-quantile (q in [0, 1]) of a telemetry histogram as
 * the upper bound of the bucket holding the rank-q observation,
 * clamped to the observed maximum. Log buckets make this exact to a
 * factor of two — the right precision for SLO gating, at zero cost on
 * the observe() hot path.
 */
inline double
histogramQuantile(const telemetry::Histogram &h, double q)
{
    const std::uint64_t total = h.count();
    if (total == 0)
        return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) *
                        static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (unsigned i = 0; i < telemetry::Histogram::kBuckets; ++i) {
        cumulative += h.bucketCount(i);
        if (static_cast<double>(cumulative) >= rank) {
            return std::min(telemetry::Histogram::bucketUpperBound(i),
                            h.max());
        }
    }
    return h.max();
}

} // namespace morphling::service

#endif // MORPHLING_SERVICE_TENANT_STATS_H
