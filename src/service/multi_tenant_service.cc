#include "multi_tenant_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.h"
#include "tfhe/verify.h"

namespace morphling::service {

namespace {

/** Tenant names embed into metric names; keep them to the safe
 *  alphabet (the Prometheus exporter maps '.' to '_', everything
 *  else must already be legal). */
std::string
sanitized(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            c = '_';
    }
    return out;
}

[[noreturn]] void
throwUnknownTenant(const TenantId &tenant)
{
    throw std::out_of_range("MultiTenantService: unknown tenant \"" +
                            tenant + "\"");
}

void
validateQuota(const TenantQuota &quota)
{
    if (quota.ratePerSec < 0)
        throw std::invalid_argument(
            "TenantQuota::ratePerSec must be non-negative");
    if (quota.ratePerSec > 0 && quota.burst <= 0)
        throw std::invalid_argument(
            "TenantQuota::burst must be positive when a rate is set "
            "(an empty bucket admits nothing, ever)");
    if (quota.weight == 0)
        throw std::invalid_argument(
            "TenantQuota::weight must be >= 1 (it is the tenant's "
            "share of the worker pool)");
    if (quota.sloLatencyUs < 0)
        throw std::invalid_argument(
            "TenantQuota::sloLatencyUs must be non-negative");
}

} // namespace

void
MultiTenantService::Tenant::observe(const CompletionInfo &info)
{
    latencyUs->observe(info.latencyUs);
    completed->inc();
    bootstraps->inc(info.bootstraps);
    const double slo = sloLatencyUs.load(std::memory_order_relaxed);
    if (slo > 0 && info.latencyUs > slo)
        sloBreaches->inc();
    if (info.deadlineMissed)
        deadlineMisses->inc();
}

MultiTenantService::MultiTenantService(MultiTenantConfig config)
    : metrics_(config.metrics != nullptr
                   ? *config.metrics
                   : telemetry::MetricsRegistry::instance()),
      service_(std::move(config.service))
{
}

MultiTenantService::~MultiTenantService() { shutdown(); }

tfhe::KeyFingerprint
MultiTenantService::addTenant(const TenantId &tenant,
                              const tfhe::EvaluationKeys &keys,
                              TenantQuota quota)
{
    validateQuota(quota);
    if (const auto problem = tfhe::verify(keys))
        throw std::invalid_argument("MultiTenantService: " + *problem);
    const tfhe::KeyFingerprint fp = tfhe::fingerprintEvaluationKeys(keys);
    std::unique_lock<std::mutex> lk(mu_);
    if (stopped_) {
        throw std::logic_error(
            "MultiTenantService: addTenant on a shut-down service");
    }
    auto [it, inserted] = tenants_.try_emplace(tenant);
    if (inserted) {
        auto t = std::make_unique<Tenant>();
        t->name = tenant;
        const std::string prefix = "tenant." + sanitized(tenant) + ".";
        const auto counter = [&](const char *name, const char *help) {
            return &metrics_.counter(prefix + name, help);
        };
        t->submitted = counter("submitted", "submissions forwarded");
        t->throttled = counter("throttled", "admission-control refusals");
        t->completed = counter("completed", "promises fulfilled");
        t->bootstraps = counter("bootstraps", "bootstraps retired");
        t->sloBreaches = counter("slo_breaches",
                                 "completions slower than the tenant SLO");
        t->deadlineMisses = counter(
            "deadline_misses", "requests dispatched past their deadline");
        t->latencyUs = &metrics_.histogram(
            prefix + "latency_us", "submit -> completion latency");
        t->lane = service_.addLane(
            [tenant = t.get()](const CompletionInfo &info) {
                tenant->observe(info);
            });
        it->second = std::move(t);
    }
    Tenant &t = *it->second;
    // find() hands a new tenant out as soon as mu_ drops: take its
    // enrollment lock first, so every caller waits for the keys.
    std::unique_lock<std::mutex> elk(t.enrollMu, std::defer_lock);
    if (inserted)
        elk.lock();
    lk.unlock();
    if (!inserted)
        elk.lock();

    // Refuse keys some registered LUT cannot run under before anything
    // changes.
    for (const auto &table : t.luts)
        BootstrapService::validateLut(table, keys.params);
    if (t.enrollment == nullptr || t.enrollment->fp != fp) {
        // New keys, fresh service ids: work queued under the old ids
        // finishes under the keys and programs it pinned, nothing has
        // to drain, and the old ids are reclaimed once it is done.
        if (t.enrollment != nullptr)
            registry_.evictions.fetch_add(1, std::memory_order_relaxed);
        auto next = std::make_shared<Enrollment>();
        next->keys = std::make_shared<const tfhe::EvaluationKeys>(keys);
        next->fp = fp;
        for (const auto &table : t.luts) {
            next->serviceLuts.push_back(
                service_.registerLut(t.lane, table, keys.params, next));
        }
        t.enrollment = std::move(next);
    }
    elk.unlock();
    service_.setLaneWeight(t.lane, quota.weight);
    {
        std::lock_guard<std::mutex> alk(admitMu_);
        t.ratePerSec = quota.ratePerSec;
        t.burst = quota.burst;
    }
    // Blocked admitters re-derive their wait from the new rate.
    admitCv_.notify_all();
    t.sloLatencyUs.store(quota.sloLatencyUs,
                         std::memory_order_relaxed);
    return fp;
}

MultiTenantService::Tenant &
MultiTenantService::find(const TenantId &tenant) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        throwUnknownTenant(tenant);
    return *it->second;
}

bool
MultiTenantService::admit(Tenant &t, double cost, bool block)
{
    std::unique_lock<std::mutex> lk(admitMu_);
    const auto refill = [&t] {
        const auto now = ServiceClock::now();
        if (!t.primed) {
            t.primed = true;
            t.tokens = t.burst; // first admission: full bucket
        } else {
            const double dt =
                std::chrono::duration<double>(now - t.lastRefill)
                    .count();
            t.tokens = std::min(t.burst,
                                t.tokens + dt * t.ratePerSec);
        }
        t.lastRefill = now;
    };
    refill();
    while (true) {
        // Re-read the quota every pass: a re-enroll may rewrite it
        // (under admitMu_) while we wait, including disabling
        // throttling outright.
        if (t.ratePerSec <= 0)
            return true;
        // A cost above the bucket depth waits for a full bucket.
        const double need = std::min(cost, t.burst);
        if (t.tokens >= need)
            break;
        if (!block) {
            t.throttled->inc();
            return false;
        }
        if (stopped_) {
            throw std::logic_error(
                "MultiTenantService: submit on a shut-down service");
        }
        // Tokens accrue with wall time only: sleep until the deficit
        // is covered (plus a tick), then re-check.
        const double deficit = need - t.tokens;
        const auto wait = std::chrono::microseconds(
            1 + static_cast<std::int64_t>(
                    1e6 * deficit / t.ratePerSec));
        admitCv_.wait_for(lk, wait);
        refill();
    }
    t.tokens -= cost;
    return true;
}

std::pair<BootstrapService::KeyPin, LutId>
MultiTenantService::pin(Tenant &t, std::optional<LutId> lut)
{
    std::lock_guard<std::mutex> lk(t.enrollMu);
    if (t.enrollment == nullptr) // its first enrollment threw
        throwUnknownTenant(t.name);
    Enrollment &e = *t.enrollment;
    LutId id = 0;
    if (lut.has_value()) {
        if (*lut >= e.serviceLuts.size()) {
            throw std::out_of_range("MultiTenantService: tenant \"" +
                                    t.name + "\" has no LUT id " +
                                    std::to_string(*lut));
        }
        id = e.serviceLuts[*lut];
    }
    return {{e.keys, e.fp, t.enrollment}, id};
}

std::shared_ptr<const tfhe::EvaluationKeys>
MultiTenantService::keys(const TenantId &tenant) const
{
    auto &t = find(tenant);
    std::lock_guard<std::mutex> lk(t.enrollMu);
    if (t.enrollment == nullptr) // its first enrollment threw
        throwUnknownTenant(tenant);
    return t.enrollment->keys;
}

LutId
MultiTenantService::registerLut(const TenantId &tenant,
                                std::vector<tfhe::Torus32> lut)
{
    auto &t = find(tenant);
    std::lock_guard<std::mutex> lk(t.enrollMu);
    if (t.enrollment == nullptr) // its first enrollment threw
        throwUnknownTenant(tenant);
    t.enrollment->serviceLuts.push_back(service_.registerLut(
        t.lane, lut, t.enrollment->keys->params, t.enrollment));
    t.luts.push_back(std::move(lut));
    return static_cast<LutId>(t.luts.size() - 1);
}

std::optional<std::future<tfhe::LweCiphertext>>
MultiTenantService::enqueue(
    const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline, bool block)
{
    auto &t = find(tenant);
    if (!admit(t, 1.0, block))
        return std::nullopt;
    auto [keys, id] = pin(t, lut);
    auto future = service_.enqueue(std::move(ct), id, std::move(keys),
                                   deadline, block);
    // Only a forwarded request is "submitted"; a saturation bounce is
    // throttling like an empty bucket, and must not skew the
    // per-tenant accounting the SLO and fairness gates read.
    (future.has_value() ? t.submitted : t.throttled)->inc();
    return future;
}

std::future<tfhe::LweCiphertext>
MultiTenantService::submit(
    const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline)
{
    return std::move(
        *enqueue(tenant, std::move(ct), lut, deadline, /*block=*/true));
}

std::optional<std::future<tfhe::LweCiphertext>>
MultiTenantService::trySubmit(
    const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline)
{
    return enqueue(tenant, std::move(ct), lut, deadline, /*block=*/false);
}

std::future<std::vector<tfhe::LweCiphertext>>
MultiTenantService::submitCircuit(
    const TenantId &tenant, circuit::Circuit circuit,
    std::vector<tfhe::LweCiphertext> inputs)
{
    auto &t = find(tenant);
    // A rejected circuit draws no tokens and counts as no submission.
    BootstrapService::validateCircuitInputs(circuit, inputs.size());
    const auto cost = std::max<std::uint64_t>(
        1, circuit.bootstrapCount());
    admit(t, static_cast<double>(cost), /*block=*/true);
    auto keys = pin(t, std::nullopt).first;
    t.submitted->inc();
    return service_.enqueueCircuit(t.lane, std::move(keys),
                                   std::move(circuit), std::move(inputs));
}

TenantStats
MultiTenantService::stats(const TenantId &tenant) const
{
    const auto &t = find(tenant);
    TenantStats s;
    s.tenant = t.name;
    s.submitted = t.submitted->value();
    s.throttled = t.throttled->value();
    s.completed = t.completed->value();
    s.bootstraps = t.bootstraps->value();
    s.sloBreaches = t.sloBreaches->value();
    s.deadlineMisses = t.deadlineMisses->value();
    s.meanLatencyUs = t.latencyUs->mean();
    s.p50LatencyUs = histogramQuantile(*t.latencyUs, 0.50);
    s.p99LatencyUs = histogramQuantile(*t.latencyUs, 0.99);
    return s;
}

ServiceStats
MultiTenantService::serviceStats() const
{
    return service_.stats();
}

void
MultiTenantService::flush()
{
    service_.flush();
}

void
MultiTenantService::shutdown()
{
    stopped_ = true;
    {
        // Wake blocked admitters; they throw std::logic_error on the
        // stopped flag, matching BootstrapService's
        // submit-after-shutdown contract.
        std::lock_guard<std::mutex> alk(admitMu_);
        admitCv_.notify_all();
    }
    service_.shutdown();
}

} // namespace morphling::service
