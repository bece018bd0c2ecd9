/**
 * @file
 * Per-tenant evaluation-key registry with an LRU over materialized
 * keys.
 *
 * A multi-tenant deployment holds one EvaluationKeys per tenant — at
 * production parameters the BSK alone is tens of megabytes, so only a
 * bounded working set can stay materialized. The registry keeps every
 * enrolled tenant's keys in canonical serialized form ("cold
 * storage", the cheap representation) and materializes at most
 * `maxResident` of them at a time, evicting in
 * least-recently-acquired order. A warm-up (re-materialization from
 * the cold bytes) is measured and exported, so the cost of an
 * undersized working set is visible in the same telemetry that shows
 * the hit rate.
 *
 * Keys are handed out as shared_ptr<const EvaluationKeys>: an
 * eviction drops only the registry's reference, so queued work that
 * pinned those keys still runs under them — the memory is reclaimed
 * when the last holder lets go.
 *
 * Identity is the content-derived tfhe::KeyFingerprint
 * (tfhe/serialize.h): two enrollments of byte-identical keys agree on
 * it, and any mutation changes it, which is what the warm-up
 * bit-identity guarantee rests on (tests/test_tenant.cc).
 *
 * Thread safety: every public method may be called from any thread.
 */

#ifndef MORPHLING_SERVICE_TENANT_REGISTRY_H
#define MORPHLING_SERVICE_TENANT_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "service/tenant_stats.h"
#include "telemetry/metrics.h"
#include "tfhe/serialize.h"

namespace morphling::service {

/** Capacity model of a TenantRegistry. */
struct TenantRegistryConfig
{
    /** Tenants whose keys may be materialized simultaneously
     *  (clamped to >= 1: the tenant being acquired always fits). */
    std::size_t maxResident = 4;
};

/** A point-in-time snapshot of registry counters. */
struct TenantRegistryStats
{
    std::size_t enrolled = 0;        //!< tenants known
    std::size_t resident = 0;        //!< tenants materialized
    std::uint64_t hits = 0;          //!< acquire() on a resident tenant
    std::uint64_t warmUps = 0;       //!< acquire() that deserialized
    std::uint64_t evictions = 0;     //!< LRU and key-rotation drops
    std::uint64_t residentBytes = 0; //!< wire bytes held materialized
    double lastWarmUpUs = 0;         //!< most recent warm-up cost
};

class TenantRegistry
{
  public:
    /** Metrics land in `metrics` (nullptr = the process registry)
     *  under "tenant.registry.*". */
    explicit TenantRegistry(TenantRegistryConfig config = {},
                            telemetry::MetricsRegistry *metrics =
                                nullptr);

    TenantRegistry(const TenantRegistry &) = delete;
    TenantRegistry &operator=(const TenantRegistry &) = delete;

    /**
     * Enroll a tenant's evaluation keys: serialize them to cold
     * storage and return their content fingerprint. Re-enrolling
     * byte-identical keys is a no-op; different keys replace the old
     * material (dropping any resident copy). The caller's `keys` is
     * not retained.
     */
    tfhe::KeyFingerprint enroll(const TenantId &tenant,
                                const tfhe::EvaluationKeys &keys);

    /**
     * Hand out the tenant's materialized keys, warming them up from
     * cold storage on a miss (measured, counted; outside the registry
     * lock, so it stalls no other tenant) and refreshing their LRU
     * position. May evict the least-recently-acquired other tenant to
     * stay within maxResident. Throws std::out_of_range for a tenant
     * that was never enrolled.
     */
    std::shared_ptr<const tfhe::EvaluationKeys>
    acquire(const TenantId &tenant);

    /** True while the registry itself holds materialized keys. */
    bool resident(const TenantId &tenant) const;

    std::optional<tfhe::KeyFingerprint>
    fingerprint(const TenantId &tenant) const;

    TenantRegistryStats stats() const;

  private:
    struct Entry
    {
        tfhe::KeyFingerprint fp = 0;
        std::shared_ptr<const std::string> coldBytes; //!< serialized keys
        std::shared_ptr<const tfhe::EvaluationKeys> keys; //!< if resident
        std::list<TenantId>::iterator lruPos; //!< valid iff resident
    };

    /** Drop `it`'s materialized keys. Caller holds mu_. */
    void evictLocked(std::map<TenantId, Entry>::iterator it);

    const TenantRegistryConfig config_;

    mutable std::mutex mu_;
    std::map<TenantId, Entry> entries_;
    std::list<TenantId> lru_; //!< front = most recently acquired
    std::uint64_t hits_ = 0;
    std::uint64_t warmUps_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t residentBytes_ = 0;
    double lastWarmUpUs_ = 0;

    telemetry::Counter &mHits_;
    telemetry::Counter &mWarmUps_;
    telemetry::Counter &mEvictions_;
    telemetry::Histogram &mWarmUpUs_;
    telemetry::Gauge &mResident_;
    telemetry::Gauge &mResidentBytes_;
    telemetry::Gauge &mCapacity_;
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_TENANT_REGISTRY_H
