#include "tenant_registry.h"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace morphling::service {

namespace {

std::size_t
clampCapacity(std::size_t max_resident)
{
    return max_resident == 0 ? 1 : max_resident;
}

telemetry::MetricsRegistry &
orProcess(telemetry::MetricsRegistry *metrics)
{
    return metrics ? *metrics : telemetry::MetricsRegistry::instance();
}

} // namespace

TenantRegistry::TenantRegistry(TenantRegistryConfig config,
                               telemetry::MetricsRegistry *metrics)
    : config_{clampCapacity(config.maxResident)},
      mHits_(orProcess(metrics).counter(
          "tenant.registry.hits", "acquire() served from resident keys")),
      mWarmUps_(orProcess(metrics).counter(
          "tenant.registry.warmups",
          "acquire() that re-materialized cold keys")),
      mEvictions_(orProcess(metrics).counter(
          "tenant.registry.evictions",
          "materialized keys dropped (LRU or key rotation)")),
      mWarmUpUs_(orProcess(metrics).histogram(
          "tenant.registry.warmup_us", "cost of one key re-materialization")),
      mResident_(orProcess(metrics).gauge(
          "tenant.registry.resident", "tenants with materialized keys")),
      mResidentBytes_(orProcess(metrics).gauge(
          "tenant.registry.resident_bytes",
          "wire bytes of materialized keys")),
      mCapacity_(orProcess(metrics).gauge("tenant.registry.capacity",
                                          "configured maxResident"))
{
    mCapacity_.set(static_cast<double>(config_.maxResident));
}

tfhe::KeyFingerprint
TenantRegistry::enroll(const TenantId &tenant,
                       const tfhe::EvaluationKeys &keys)
{
    std::ostringstream oss(std::ios::binary);
    tfhe::saveEvaluationKeys(oss, keys);
    std::string bytes = std::move(oss).str();
    // The hash fingerprintEvaluationKeys streams through, over the
    // cold copy already in hand (tested equal in test_tenant.cc).
    const tfhe::KeyFingerprint fp = tfhe::fnv1a(bytes.data(), bytes.size());

    std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = entries_.try_emplace(tenant);
    if (!inserted) {
        if (it->second.fp == fp)
            return fp; // byte-identical re-enrollment
        evictLocked(it); // key rotation: drop the stale resident copy
    }
    it->second.fp = fp;
    it->second.coldBytes =
        std::make_shared<const std::string>(std::move(bytes));
    return fp;
}

std::shared_ptr<const tfhe::EvaluationKeys>
TenantRegistry::acquire(const TenantId &tenant)
{
    std::unique_lock<std::mutex> lk(mu_);
    const auto it = entries_.find(tenant);
    if (it == entries_.end())
        throw std::out_of_range("TenantRegistry: unknown tenant \"" +
                                tenant + "\"");
    auto &entry = it->second; // entries are never erased
    while (entry.keys == nullptr) {
        // Warm-up: re-materialize from cold storage, measured — this is
        // the cost an undersized working set pays on every re-admission.
        // It runs unlocked; a rotation or a concurrent warm-up that got
        // there first wins.
        const auto cold = entry.coldBytes;
        lk.unlock();
        const auto t0 = std::chrono::steady_clock::now();
        std::istringstream iss(*cold, std::ios::binary);
        auto keys = std::make_shared<const tfhe::EvaluationKeys>(
            tfhe::loadEvaluationKeys(iss));
        const auto t1 = std::chrono::steady_clock::now();
        lk.lock();
        if (entry.keys != nullptr || entry.coldBytes != cold)
            continue;
        entry.keys = std::move(keys);
        lastWarmUpUs_ =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        ++warmUps_;
        mWarmUps_.inc();
        mWarmUpUs_.observe(lastWarmUpUs_);
        lru_.push_front(tenant);
        entry.lruPos = lru_.begin();
        residentBytes_ += cold->size();
        while (lru_.size() > config_.maxResident)
            evictLocked(entries_.find(lru_.back()));
        mResident_.set(static_cast<double>(lru_.size()));
        mResidentBytes_.set(static_cast<double>(residentBytes_));
        return entry.keys;
    }
    ++hits_;
    mHits_.inc();
    lru_.splice(lru_.begin(), lru_, entry.lruPos);
    return entry.keys;
}

void
TenantRegistry::evictLocked(std::map<TenantId, Entry>::iterator it)
{
    auto &entry = it->second;
    if (entry.keys == nullptr)
        return;
    entry.keys.reset(); // holders keep the keys alive; we let go
    lru_.erase(entry.lruPos);
    residentBytes_ -= entry.coldBytes->size();
    ++evictions_;
    mEvictions_.inc();
    mResident_.set(static_cast<double>(lru_.size()));
    mResidentBytes_.set(static_cast<double>(residentBytes_));
}

bool
TenantRegistry::resident(const TenantId &tenant) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(tenant);
    return it != entries_.end() && it->second.keys != nullptr;
}

std::optional<tfhe::KeyFingerprint>
TenantRegistry::fingerprint(const TenantId &tenant) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(tenant);
    if (it == entries_.end())
        return std::nullopt;
    return it->second.fp;
}

TenantRegistryStats
TenantRegistry::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    TenantRegistryStats s;
    s.enrolled = entries_.size();
    s.resident = lru_.size();
    s.hits = hits_;
    s.warmUps = warmUps_;
    s.evictions = evictions_;
    s.residentBytes = residentBytes_;
    s.lastWarmUpUs = lastWarmUpUs_;
    return s;
}

} // namespace morphling::service
