/**
 * @file
 * Key counters of the multi-tenant front door.
 *
 * Each tenant's keys live in its current enrollment
 * (multi_tenant_service.h) as one shared_ptr<const EvaluationKeys>
 * handle that shares the caller's key storage, so there is no separate
 * key store: this class only counts. It stays for the benchmark probe,
 * which reads MultiTenantService::registry().stats().warmUps and
 * .evictions; the next benchmark change (ROADMAP item 9) retires it.
 */

#ifndef MORPHLING_SERVICE_TENANT_REGISTRY_H
#define MORPHLING_SERVICE_TENANT_REGISTRY_H

#include <atomic>
#include <cstdint>

namespace morphling::service {

/** A point-in-time snapshot of the front door's key counters. */
struct TenantRegistryStats
{
    std::uint64_t warmUps = 0;   //!< always 0: keys are never decoded
    std::uint64_t evictions = 0; //!< key sets a rotation dropped
};

class TenantRegistry
{
  public:
    TenantRegistryStats stats() const
    {
        return {.evictions = evictions.load(std::memory_order_relaxed)};
    }

    /** Counted by MultiTenantService::addTenant on each rotation. */
    std::atomic<std::uint64_t> evictions{0};
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_TENANT_REGISTRY_H
