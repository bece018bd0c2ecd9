/**
 * @file
 * Multi-tenant front door on one shared worker pool, against a plain
 * BootstrapService and under mixed load:
 *
 *  1. Capacity: one tenant at the default weight pushes kRequests
 *     through a MultiTenantService, interleaved kReps times with the
 *     same drive loop through a plain BootstrapService with the same
 *     config. Tenants are lanes of one work-conserving scheduler, so
 *     a lone tenant should use the whole pool: solo_vs_service is the
 *     ratio of the two median BS/s (gated >= 0.75 by
 *     scripts/check_multitenant_bench.py in the perf-smoke CI leg).
 *  2. Mixed load: two tenants with equal quotas submit the same
 *     volume concurrently (tenants cannot share superbatches: one BSK
 *     per batch). The fairness headline is worst-tenant p99 over
 *     best-tenant p99, gated at <= 3x (the quantiles are log-bucket
 *     estimates, so a factor-2 bucket edge alone must not trip it).
 *  3. Weighted shares: two backlogged tenants with weights 1 and 3.
 *     When the first finishes, each tenant's share of the bootstraps
 *     retired so far over its weight share is its share_vs_weight,
 *     gated within [0.8, 1.2]. Each tenant retires dozens of
 *     superbatches by then, so one batch is under 5% of its total.
 *
 * Latency quantiles come from the per-tenant telemetry histograms —
 * the same numbers a production scrape would see — and densities
 * (mean batch fill) from the shared pool's ServiceStats.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/multi_tenant_service.h"
#include "tfhe/encoding.h"

using namespace morphling;
using namespace morphling::service;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint32_t kSpace = 4;
constexpr unsigned kRequests = 2048; //!< per tenant and run
constexpr unsigned kReps = 5;        //!< interleaved capacity runs
/** Per tenant in the weighted scenario: the weight-1 tenant retires
 *  about a third of it, > 20 superbatches, before the other ends. */
constexpr unsigned kWeightedRequests = 4608;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

ServiceConfig
serviceTemplate()
{
    ServiceConfig config;
    config.maxOutstanding = kRequests; // measure batching, not admission
    config.maxWait = std::chrono::microseconds(5000);
    return config; // numWorkers = 0: one thread per hardware thread
}

/** kRequests ciphertexts under `keys`, encrypted before any timing. */
std::vector<tfhe::LweCiphertext>
inputsFor(const tfhe::KeySet &keys, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<tfhe::LweCiphertext> inputs;
    inputs.reserve(kRequests);
    for (unsigned i = 0; i < kRequests; ++i)
        inputs.push_back(
            tfhe::encryptPadded(keys, i % kSpace, kSpace, rng));
    return inputs;
}

/** Saturating drive: submit `count` requests cycling through
 *  `inputs`, wait for all; returns the wall time in seconds. */
template <typename Submit>
double
drive(Submit submit, const std::vector<tfhe::LweCiphertext> &inputs,
      unsigned count = kRequests)
{
    const auto t0 = Clock::now();
    std::vector<std::future<tfhe::LweCiphertext>> futures;
    futures.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        futures.push_back(submit(inputs[i % inputs.size()]));
    for (auto &f : futures)
        f.wait();
    return seconds(Clock::now() - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "multitenant");
    bench::banner("Multi-tenant service",
                  "one shared pool: a lone tenant vs. a plain service, "
                  "per-tenant p50/p99 under mixed load, weighted shares");

    const tfhe::TfheParams &params = tfhe::paramsTest();
    Rng rngA(0x7E4A), rngB(0x7E4B);
    const tfhe::KeySet keysA = tfhe::KeySet::generate(params, rngA);
    const tfhe::KeySet keysB = tfhe::KeySet::generate(params, rngB);
    const auto evalA = tfhe::EvaluationKeys::fromKeySet(keysA);
    const auto evalB = tfhe::EvaluationKeys::fromKeySet(keysB);
    const auto inputsA = inputsFor(keysA, 0x501);
    const auto inputsB = inputsFor(keysB, 0x502);
    const auto lut = tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
        return (m + 1) % kSpace;
    });
    const unsigned superbatch = serviceTemplate().superbatchSize;

    // --- capacity: lone tenant vs. plain service, interleaved ---------
    std::vector<double> solo_bs, service_bs;
    TenantStats solo;
    double solo_density = 0;
    unsigned workers = 0;
    {
        telemetry::MetricsRegistry metrics;
        MultiTenantConfig config;
        config.service = serviceTemplate();
        config.metrics = &metrics;
        MultiTenantService front(config);
        front.addTenant("solo", evalA);
        const LutId soloLut = front.registerLut("solo", lut);
        BootstrapService svc(evalA, serviceTemplate());
        const LutId svcLut = svc.registerLut(lut);
        workers = svc.config().numWorkers;

        const auto viaFront = [&](const tfhe::LweCiphertext &ct) {
            return front.submit("solo", ct, soloLut);
        };
        const auto viaService = [&](const tfhe::LweCiphertext &ct) {
            return svc.submit(ct, svcLut);
        };
        // Warm-up: key warm-up, worker start, program compilation.
        drive(viaFront, inputsA, superbatch * workers);
        drive(viaService, inputsA, superbatch * workers);
        for (unsigned r = 0; r < kReps; ++r) {
            solo_bs.push_back(kRequests / drive(viaFront, inputsA));
            service_bs.push_back(kRequests / drive(viaService, inputsA));
        }
        solo = front.stats("solo");
        solo_density = front.serviceStats().meanOccupancy(superbatch);
    }
    const double solo_median = median(solo_bs);
    const double service_median = median(service_bs);
    const double solo_vs_service = solo_median / service_median;

    // --- mixed load: two equal tenants, concurrent ---------------------
    double mixed_seconds = 0;
    TenantStats a, b;
    double mixed_density = 0;
    {
        telemetry::MetricsRegistry metrics;
        MultiTenantConfig config;
        config.service = serviceTemplate();
        config.registry.maxResident = 2;
        config.metrics = &metrics;
        MultiTenantService front(config);
        front.addTenant("a", evalA);
        front.addTenant("b", evalB);
        const LutId lutIdA = front.registerLut("a", lut);
        const LutId lutIdB = front.registerLut("b", lut);

        const auto viaA = [&](const tfhe::LweCiphertext &ct) {
            return front.submit("a", ct, lutIdA);
        };
        const auto viaB = [&](const tfhe::LweCiphertext &ct) {
            return front.submit("b", ct, lutIdB);
        };
        const auto t0 = Clock::now();
        std::thread ta([&] { drive(viaA, inputsA); });
        std::thread tb([&] { drive(viaB, inputsB); });
        ta.join();
        tb.join();
        mixed_seconds = seconds(Clock::now() - t0);
        a = front.stats("a");
        b = front.stats("b");
        mixed_density = front.serviceStats().meanOccupancy(superbatch);
    }
    const double mixed_bs = 2.0 * kRequests / mixed_seconds;
    const double worst_p99 = std::max(a.p99LatencyUs, b.p99LatencyUs);
    const double best_p99 =
        std::max(1.0, std::min(a.p99LatencyUs, b.p99LatencyUs));
    const double fairness = worst_p99 / best_p99;

    // --- weighted shares: 1:3, both backlogged ---------------------------
    const unsigned weights[2] = {1, 3};
    const char *const names[2] = {"light", "heavy"};
    double done[2] = {0, 0};
    {
        telemetry::MetricsRegistry metrics;
        MultiTenantConfig config;
        config.service = serviceTemplate();
        config.registry.maxResident = 2;
        config.metrics = &metrics;
        MultiTenantService front(config);
        LutId ids[2];
        for (unsigned i = 0; i < 2; ++i) {
            TenantQuota quota;
            quota.weight = weights[i];
            front.addTenant(names[i], i == 0 ? evalA : evalB, quota);
            ids[i] = front.registerLut(names[i], lut);
        }
        // Snapshot both tenants' retired bootstraps the moment the
        // first tenant's work is all done: up to then both lanes were
        // backlogged.
        std::once_flag first;
        std::vector<std::thread> submitters;
        for (unsigned i = 0; i < 2; ++i) {
            submitters.emplace_back([&, i] {
                const auto via = [&](const tfhe::LweCiphertext &ct) {
                    return front.submit(names[i], ct, ids[i]);
                };
                drive(via, i == 0 ? inputsA : inputsB, kWeightedRequests);
                std::call_once(first, [&] {
                    for (unsigned j = 0; j < 2; ++j)
                        done[j] = static_cast<double>(
                            front.stats(names[j]).bootstraps);
                });
            });
        }
        for (auto &s : submitters)
            s.join();
    }
    double share_vs_weight[2];
    for (unsigned i = 0; i < 2; ++i) {
        const double weight_share =
            weights[i] / static_cast<double>(weights[0] + weights[1]);
        share_vs_weight[i] = done[i] / (done[0] + done[1]) / weight_share;
    }

    Table t({"Scenario", "Tenant", "p50 us", "p99 us", "density",
             "BS/s"});
    t.addRow({"baseline", "solo", Table::fmt(solo.p50LatencyUs, 0),
              Table::fmt(solo.p99LatencyUs, 0),
              Table::fmt(solo_density, 2),
              Table::fmtCount(static_cast<std::uint64_t>(solo_median))});
    t.addRow({"baseline", "plain service", "-", "-", "-",
              Table::fmtCount(
                  static_cast<std::uint64_t>(service_median))});
    t.addRow({"mixed", "a", Table::fmt(a.p50LatencyUs, 0),
              Table::fmt(a.p99LatencyUs, 0), "-", "-"});
    t.addRow({"mixed", "b", Table::fmt(b.p50LatencyUs, 0),
              Table::fmt(b.p99LatencyUs, 0),
              Table::fmt(mixed_density, 2),
              Table::fmtCount(static_cast<std::uint64_t>(mixed_bs))});
    t.print(std::cout);
    bench::note(std::to_string(workers) + " workers shared by every "
                "tenant; BS/s are medians of " + std::to_string(kReps) +
                " interleaved runs. solo_vs_service = " +
                Table::fmt(solo_vs_service, 2) + "x (CI gate: >= 0.75x)");
    bench::note("fairness = worst p99 / best p99 = " +
                Table::fmt(fairness, 2) + "x (CI gate: <= 3x)");
    for (unsigned i = 0; i < 2; ++i) {
        bench::note(std::string("weight ") + std::to_string(weights[i]) +
                    " tenant: " +
                    Table::fmtCount(static_cast<std::uint64_t>(done[i])) +
                    " bootstraps, share_vs_weight = " +
                    Table::fmt(share_vs_weight[i], 2) +
                    " (CI gate: 0.8..1.2)");
    }

    const std::string solo_params = "TEST params, 1 tenant";
    report.add("baseline_p50", solo_params, solo.p50LatencyUs, "us");
    report.add("baseline_p99", solo_params, solo.p99LatencyUs, "us");
    report.add("baseline_density", solo_params, solo_density, "fraction");
    report.add("baseline_throughput", solo_params, solo_median, "BS/s");
    report.add("service_throughput", "TEST params, plain BootstrapService",
               service_median, "BS/s");
    report.add("solo_vs_service", solo_params, solo_vs_service, "x");
    const std::string mixed_params = "TEST params, mixed 2-tenant";
    report.add("tenant_a_p50", mixed_params, a.p50LatencyUs, "us");
    report.add("tenant_a_p99", mixed_params, a.p99LatencyUs, "us");
    report.add("tenant_b_p50", mixed_params, b.p50LatencyUs, "us");
    report.add("tenant_b_p99", mixed_params, b.p99LatencyUs, "us");
    report.add("mixed_density", mixed_params, mixed_density, "fraction");
    report.add("mixed_throughput", mixed_params, mixed_bs, "BS/s");
    report.add("fairness_p99_ratio", mixed_params, fairness, "x");
    const std::string weighted_params = "TEST params, weights 1:3";
    for (unsigned i = 0; i < 2; ++i) {
        report.add(std::string(names[i]) + "_bootstraps", weighted_params,
                   done[i], "count");
        report.add(std::string(names[i]) + "_share_vs_weight",
                   weighted_params, share_vs_weight[i], "x");
    }
    return 0;
}
