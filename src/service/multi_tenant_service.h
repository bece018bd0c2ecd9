/**
 * @file
 * The multi-tenant front door: routes submissions by TenantId into
 * lanes of one shared BootstrapService, with token-bucket admission, a
 * bounded key working set and per-tenant SLO accounting
 * (docs/service.md walks through it).
 *
 * Tenants never share a batch (a superbatch blind-rotates against one
 * BSK), but they share the workers: each tenant is a lane, served by
 * deficit round robin weighted by TenantQuota::weight, with its own
 * maxOutstanding bound, behind its own token bucket. Each request and
 * circuit pins the keys and LUT ids of the enrollment it was admitted
 * under until it completes, so re-enrolling needs no drain, and later
 * admissions reuse the key copy queued work holds.
 *
 * Per-tenant "tenant.<name>.*" metrics reach both telemetry exporters;
 * stats(tenant) folds them into a TenantStats snapshot.
 *
 * Thread safety: every public method may be called from any thread.
 */

#ifndef MORPHLING_SERVICE_MULTI_TENANT_SERVICE_H
#define MORPHLING_SERVICE_MULTI_TENANT_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "service/bootstrap_service.h"
#include "service/tenant_registry.h"
#include "service/tenant_stats.h"

namespace morphling::service {

/** Configuration of a MultiTenantService. */
struct MultiTenantConfig
{
    /** The shared scheduler every tenant's lane runs in. */
    ServiceConfig service;

    /** Key working-set bounds (LRU capacity, warm-up accounting). */
    TenantRegistryConfig registry;

    /** Metrics destination (nullptr = the process registry). */
    telemetry::MetricsRegistry *metrics = nullptr;
};

class MultiTenantService
{
  public:
    /** Throws std::invalid_argument when the service config is
     *  rejected (ServiceConfig::validate()). */
    explicit MultiTenantService(MultiTenantConfig config = {});

    MultiTenantService(const MultiTenantService &) = delete;
    MultiTenantService &operator=(const MultiTenantService &) = delete;

    /** Drains the shared service (shutdown()) if still running. */
    ~MultiTenantService();

    /**
     * Enroll a tenant: keys go to the registry's cold storage (the
     * caller's copy is not retained), the quota takes effect on the
     * next admission. Re-adding an existing tenant updates quota and
     * keys; new keys apply to every request admitted after this
     * returns, while requests already admitted finish under the keys
     * they were admitted with. Throws std::invalid_argument on a
     * degenerate quota (negative rate/SLO, zero burst with a rate,
     * zero weight) or when a registered LUT does not fit the new
     * keys' parameters, and std::logic_error after shutdown().
     */
    tfhe::KeyFingerprint addTenant(const TenantId &tenant,
                                   const tfhe::EvaluationKeys &keys,
                                   TenantQuota quota = {});

    /** Register a LUT in the tenant's namespace; ids are per tenant
     *  and survive key rotation. Throws std::invalid_argument for an
     *  empty LUT or one with 2·|lut| > N. */
    LutId registerLut(const TenantId &tenant,
                      std::vector<tfhe::Torus32> lut);

    /** Submit one bootstrap, blocking first on the tenant's token
     *  bucket, then on its lane's backpressure. Throws
     *  std::out_of_range for an unknown tenant or LUT id, and
     *  std::logic_error when the service is (or, while this call
     *  waits, gets) shut down. */
    std::future<tfhe::LweCiphertext>
    submit(const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
           std::optional<ServiceClock::time_point> deadline =
               std::nullopt);

    /** Fail-fast submission: std::nullopt when the tenant's bucket is
     *  empty or its lane is saturated — both counted as throttled,
     *  and only a forwarded request counts as submitted. */
    std::optional<std::future<tfhe::LweCiphertext>>
    trySubmit(const TenantId &tenant, tfhe::LweCiphertext ct,
              LutId lut,
              std::optional<ServiceClock::time_point> deadline =
                  std::nullopt);

    /** Submit a whole circuit; draws bootstrapCount() tokens at once.
     *  A circuit costing more than the bucket depth waits for a full
     *  bucket and leaves the balance negative (paid back at ratePerSec). */
    std::future<std::vector<tfhe::LweCiphertext>>
    submitCircuit(const TenantId &tenant, circuit::Circuit circuit,
                  std::vector<tfhe::LweCiphertext> inputs);

    /** Per-tenant snapshot (throws std::out_of_range when unknown). */
    TenantStats stats(const TenantId &tenant) const;

    /** The shared scheduler's ServiceStats, summed over tenants. */
    ServiceStats serviceStats() const;

    TenantRegistry &registry() { return registry_; }

    /** Flush every tenant's partial batches. */
    void flush();

    /** Stop admission and drain the shared service. Idempotent. */
    void shutdown();

  private:
    /** One enrollment of a tenant's keys. Every request and circuit
     *  admitted under it holds it until completion, as the owner of
     *  its service LUT ids (BootstrapService::registerLut), so a
     *  rotation's old ids are reclaimed once that work is done. */
    struct Enrollment
    {
        tfhe::KeyFingerprint fp = 0;
        tfhe::TfheParams params{};
        std::vector<LutId> serviceLuts; //!< by tenant LUT id
        std::weak_ptr<const tfhe::EvaluationKeys> keys; //!< pinned copy
    };

    /** The quota is split across its readers' locks: re-adding a
     *  tenant during live traffic rewrites each knob under the lock
     *  (or atomic) its hot-path reader uses, so no reader ever sees a
     *  torn or racing TenantQuota. */
    struct Tenant
    {
        TenantId name;
        std::size_t lane = 0; //!< the tenant's lane in service_

        /** Orders enrollment against pinning, so a request's keys and
         *  its LUT's service id always come from one enrollment. */
        std::mutex enrollMu;
        // Guarded by enrollMu.
        std::vector<std::vector<tfhe::Torus32>> luts; //!< by tenant id
        /** Null until the first enrollment succeeds. */
        std::shared_ptr<Enrollment> enrollment;

        // Token bucket and its quota knobs, guarded by the owning
        // service's admitMu_.
        double ratePerSec = 0;
        double burst = 0;
        double tokens = 0;
        ServiceClock::time_point lastRefill{};
        bool primed = false; //!< bucket starts full on first admit

        /** SLO bound in microseconds, read lock-free by completion
         *  callbacks on worker threads. */
        std::atomic<double> sloLatencyUs{0};

        // Hot-path stats handles (lock-free; registry-owned).
        telemetry::Counter *submitted = nullptr;
        telemetry::Counter *throttled = nullptr;
        telemetry::Counter *completed = nullptr;
        telemetry::Counter *bootstraps = nullptr;
        telemetry::Counter *sloBreaches = nullptr;
        telemetry::Counter *deadlineMisses = nullptr;
        telemetry::Histogram *latencyUs = nullptr;

        void observe(const CompletionInfo &info);
    };

    Tenant &find(const TenantId &tenant) const;

    /** Admission, key pinning and forwarding of one request; nullopt
     *  when a fail-fast submission is throttled. */
    std::optional<std::future<tfhe::LweCiphertext>>
    enqueue(const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
            std::optional<ServiceClock::time_point> deadline, bool block);

    /** Token-bucket admission of `cost` bootstraps; blocks until the
     *  bucket refills when `block`, else returns false (throttled).
     *  A cost above the bucket depth is admitted once the bucket is
     *  full and drives the balance negative — refill clamps tokens to
     *  burst, so waiting for the full cost would never terminate. */
    bool admit(Tenant &t, double cost, bool block);

    /** The tenant's current keys, pinned, and — for a single-LUT
     *  request — the service id of its LUT `lut` under the same
     *  enrollment. Throws std::out_of_range for a LUT id the tenant
     *  never registered. */
    std::pair<BootstrapService::KeyPin, LutId>
    pin(Tenant &t, std::optional<LutId> lut);

    telemetry::MetricsRegistry &metrics_;
    TenantRegistry registry_;

    mutable std::mutex mu_; //!< the tenant map
    std::map<TenantId, std::unique_ptr<Tenant>> tenants_;
    /** Read by admitters holding only admitMu_ — hence atomic. */
    std::atomic<bool> stopped_{false};

    std::mutex admitMu_; //!< token buckets
    std::condition_variable admitCv_;

    /** Declared last: destroyed (drained) before the tenants its lane
     *  observers point into. */
    BootstrapService service_;
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_MULTI_TENANT_SERVICE_H
