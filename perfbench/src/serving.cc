/**
 * @file
 * The serving workloads. Each builds its keys and inputs from the
 * seed, drives the public service API from its own generator threads,
 * stamps every request itself, and decrypts every output.
 *
 *  - pbs-set1:       closed loop, a window of 4 full superbatches
 *                    through BootstrapService at set I.
 *  - remote-trickle: open loop, seeded exponential arrivals at 200/s
 *                    through a kRemote BootstrapService to a loopback
 *                    RemoteServer.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "exec/remote_server.h"
#include "service/bootstrap_service.h"
#include "workloads.h"

namespace perfbench {

using namespace morphling;
using service::LutId;

void
serviceLayers(const service::ServiceStats &before,
              const service::ServiceStats &after, Metrics &out)
{
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    const auto sumOf = [](const sim::Histogram &h) {
        return h.mean() * static_cast<double>(h.count());
    };
    const double queued = delta(before.queueLatencyUs.count(),
                                after.queueLatencyUs.count());
    out.set("service.queue_wait_us",
            queued > 0 ? (sumOf(after.queueLatencyUs) -
                          sumOf(before.queueLatencyUs)) /
                             queued
                       : 0,
            "us", static_cast<std::size_t>(queued));
    const double batches =
        delta(before.occupancy.count(), after.occupancy.count());
    out.set("service.occupancy_frac",
            batches > 0 ? (sumOf(after.occupancy) - sumOf(before.occupancy)) /
                              batches / compiler::kSuperbatchSize
                        : 0,
            "frac", static_cast<std::size_t>(batches));
    out.set("service.superbatches",
            delta(before.superbatches, after.superbatches), "count");
    out.set("service.full_batches",
            delta(before.fullBatches, after.fullBatches), "count");
    out.set("service.timer_flushes",
            delta(before.timerFlushes, after.timerFlushes), "count");
    out.set("service.rejected", delta(before.rejected, after.rejected),
            "count");
    out.set("service.deadline_misses",
            delta(before.deadlineMisses, after.deadlineMisses), "count");
}

namespace {

constexpr unsigned kSuperbatch = compiler::kSuperbatchSize;

/** Bench-side stamps of one in-flight single-LUT request. */
struct Pending
{
    std::future<tfhe::LweCiphertext> future;
    std::uint64_t id = 0;
    std::size_t input = 0;      //!< index into the kit's pool
    std::uint32_t expected = 0; //!< plaintext LUT output
    Clock::time_point due;      //!< open loop: scheduled send time
    Clock::time_point submit;
    Clock::time_point submitted;
};

/** Wait for one request, decrypt, record its latency (from its due
 *  time) and its spans. */
void
complete(Pending &p, const Kit &kit, WindowResult &r, Spans *spans,
         Clock::time_point &last)
{
    const auto waitStart = Clock::now();
    try {
        const tfhe::LweCiphertext out = p.future.get();
        if (!kit.checkPadded(out, p.expected)) {
            r.wrong += 1;
            r.failed += 1;
        }
    } catch (const std::exception &) {
        r.failed += 1;
    }
    const auto ready = Clock::now();
    last = std::max(last, ready);
    r.bootstraps += 1;
    r.latencyMs.push_back(msBetween(p.due, ready));
    if (spans) {
        spans->add("request", p.id, 0, p.due, ready);
        spans->add("submit", p.id, p.id, p.submit, p.submitted);
        spans->add("wait", p.id, p.id, waitStart, ready);
    }
}

// --- pbs-set1 -------------------------------------------------------------

/**
 * Closed loop, one generator thread keeping four full superbatches
 * (256 requests) in flight through BootstrapService at set I, with
 * servingWorkers() workers: on 4 host threads, two superbatches run
 * while two wait, so a worker never idles for the generator. A group
 * of 64 is submitted at once; when the oldest group has completed, a
 * new one replaces it. Job latency is a whole group's: first submit to
 * last ready.
 */
class PbsSet1 final : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        kit_ = std::make_unique<Kit>(Kit::make(
            tfhe::paramsSetI(), seed, kWindow * kSuperbatch, 1));
        service::ServiceConfig config;
        config.numWorkers = servingWorkers();
        config.maxOutstanding = kWindow * kSuperbatch;
        // Groups are submitted whole; the timer must never split one.
        config.maxWait = std::chrono::milliseconds(200);
        svc_ = std::make_unique<service::BootstrapService>(kit_->eval,
                                                           config);
        lut_ = svc_->registerLut(kit_->tableA);
        // Warm-up: one superbatch per worker, so every worker has built
        // its FFT tables and the 64-wide program is compiled.
        const std::size_t n = config.numWorkers * kSuperbatch;
        const std::size_t pool = kit_->pool.size();
        std::vector<std::future<tfhe::LweCiphertext>> futures;
        for (std::size_t i = 0; i < n; ++i)
            futures.push_back(svc_->submit(kit_->pool[i % pool], lut_));
        for (std::size_t i = 0; i < n; ++i) {
            if (!kit_->checkPadded(futures[i].get(),
                                   lutA(kit_->poolMessages[i % pool])))
                throw std::runtime_error("pbs-set1 warm-up decrypted wrong");
        }
    }

    WindowResult
    run(double seconds, Spans *spans) override
    {
        before_ = svc_->stats();
        WindowResult r;
        std::deque<std::vector<Pending>> groups;
        std::uint64_t nextId = 1;
        std::size_t cursor = 0;
        const auto t0 = Clock::now();
        const auto end = secondsAfter(t0, seconds);
        auto last = t0;

        const auto submitGroup = [&] {
            std::vector<Pending> group(kSuperbatch);
            for (Pending &p : group) {
                p.id = nextId++;
                p.input = cursor++ % kit_->pool.size();
                p.expected = lutA(kit_->poolMessages[p.input]);
                p.submit = p.due = Clock::now();
                p.future = svc_->submit(kit_->pool[p.input], lut_);
                p.submitted = Clock::now();
            }
            r.attempted += group.size();
            groups.push_back(std::move(group));
        };

        for (unsigned g = 0; g < kWindow; ++g)
            submitGroup();
        while (!groups.empty()) {
            std::vector<Pending> group = std::move(groups.front());
            groups.pop_front();
            auto groupLast = group.front().submit;
            for (Pending &p : group)
                complete(p, *kit_, r, spans, groupLast);
            last = std::max(last, groupLast);
            r.jobMs.push_back(msBetween(group.front().submit, groupLast));
            if (spans) {
                spans->add("superbatch", group.front().id, 0,
                           group.front().submit, groupLast);
            }
            if (Clock::now() < end)
                submitGroup();
        }
        r.elapsedS = secondsBetween(t0, last);
        r.bsPerS = r.bootstraps / r.elapsedS;
        after_ = svc_->stats();
        return r;
    }

    void
    windowLayers(Metrics &out) const override
    {
        serviceLayers(before_, after_, out);
    }

    const Kit &kit() const override { return *kit_; }

  private:
    static constexpr unsigned kWindow = 4; //!< superbatches in flight

    std::unique_ptr<Kit> kit_;
    std::unique_ptr<service::BootstrapService> svc_;
    LutId lut_ = 0;
    service::ServiceStats before_, after_;
};

// --- remote-trickle -------------------------------------------------------

/**
 * Open loop: one generator thread sends on a seeded schedule of
 * exponential inter-arrival gaps (mean 1/200 s, rescaled so the
 * schedule spans the window exactly), alternating two LUTs, through a
 * kRemote BootstrapService to a loopback RemoteServer. A collector
 * thread waits for the futures in send order. Latency runs from each
 * request's due time, so a generator stall counts against it.
 */
class RemoteTrickle final : public Workload
{
  public:
    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        kit_ = std::make_unique<Kit>(
            Kit::make(tfhe::paramsTest(), seed, 256, 1));
        exec::RemoteServerConfig serverConfig;
        serverConfig.inner.kind = exec::BackendKind::kFunctional;
        server_ = std::make_unique<exec::RemoteServer>(serverConfig);
        server_->start();
        service::ServiceConfig config;
        config.backend = exec::BackendKind::kRemote;
        config.remote.port = server_->port();
        config.numWorkers = servingWorkers();
        svc_ = std::make_unique<service::BootstrapService>(kit_->eval,
                                                           config);
        luts_[0] = svc_->registerLut(kit_->tableA);
        luts_[1] = svc_->registerLut(kit_->tableB);
        // Warm-up: the first request enrolls the keys over the wire;
        // the rest compile the small batch shapes.
        for (unsigned i = 0; i < 16; ++i) {
            const unsigned which = i % 2;
            const tfhe::LweCiphertext out =
                svc_->submit(kit_->pool[i], luts_[which]).get();
            const std::uint32_t m = kit_->poolMessages[i];
            if (!kit_->checkPadded(out, which ? lutB(m) : lutA(m)))
                throw std::runtime_error("remote warm-up decrypted wrong");
        }
    }

    WindowResult
    run(double seconds, Spans *spans) override
    {
        beforeSvc_ = svc_->stats();
        beforeServer_ = server_->stats();
        const std::vector<double> offsets = schedule(seconds);
        WindowResult r;
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Pending> queue;
        bool done = false;
        const auto t0 = Clock::now();
        auto last = t0;

        std::thread collector([&] {
            for (;;) {
                Pending p;
                {
                    std::unique_lock<std::mutex> lk(mu);
                    cv.wait(lk, [&] { return done || !queue.empty(); });
                    if (queue.empty())
                        return;
                    p = std::move(queue.front());
                    queue.pop_front();
                }
                complete(p, *kit_, r, spans, last);
            }
        });

        std::exception_ptr error;
        try {
            send(offsets, t0, r.genLagMs, [&](Pending p) {
                {
                    std::lock_guard<std::mutex> lk(mu);
                    queue.push_back(std::move(p));
                }
                cv.notify_one();
            });
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            done = true;
        }
        cv.notify_one();
        collector.join();
        if (error)
            std::rethrow_exception(error);

        r.attempted = offsets.size();
        r.elapsedS = secondsBetween(t0, last);
        r.bsPerS = r.bootstraps / r.elapsedS;
        r.jobMs = r.latencyMs; // an arrival is one request
        r.overload = overloadOf(r.latencyMs, r.genLagMs);
        afterSvc_ = svc_->stats();
        afterServer_ = server_->stats();
        return r;
    }

    void
    windowLayers(Metrics &out) const override
    {
        serviceLayers(beforeSvc_, afterSvc_, out);
        out.set("exec.server_replays",
                static_cast<double>(afterServer_.replays -
                                    beforeServer_.replays),
                "count");
        out.set("exec.server_rejected",
                static_cast<double>(afterServer_.rejected -
                                    beforeServer_.rejected),
                "count");
    }

    const Kit &kit() const override { return *kit_; }

  private:
    static constexpr double kRatePerS = 200;

    /** The generator: send each request at its due time, alternating
     *  the two LUTs, and hand it to `push`. Records how late each send
     *  ran in `lagMs`. */
    template <class Push>
    void
    send(const std::vector<double> &offsets, Clock::time_point t0,
         std::vector<double> &lagMs, Push &&push)
    {
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            Pending p;
            p.id = i + 1;
            p.input = i % kit_->pool.size();
            const std::uint32_t m = kit_->poolMessages[p.input];
            p.expected = i % 2 ? lutB(m) : lutA(m);
            p.due = secondsAfter(t0, offsets[i]);
            std::this_thread::sleep_until(p.due);
            p.submit = Clock::now();
            lagMs.push_back(msBetween(p.due, p.submit));
            p.future = svc_->submit(kit_->pool[p.input], luts_[i % 2]);
            p.submitted = Clock::now();
            push(std::move(p));
        }
    }

    /** Send offsets (seconds from the window start) of one window. */
    std::vector<double>
    schedule(double seconds) const
    {
        const auto n = static_cast<std::size_t>(kRatePerS * seconds);
        if (n == 0)
            return {};
        Rng rng(seed_ ^ 0xA77127Eull);
        std::vector<double> gaps(n);
        double total = 0;
        for (double &g : gaps) {
            g = -std::log(1.0 - rng.nextDouble()) / kRatePerS;
            total += g;
        }
        std::vector<double> offsets(n);
        double at = 0;
        for (std::size_t i = 0; i < n; ++i) {
            at += gaps[i] * (seconds / total);
            offsets[i] = at;
        }
        return offsets;
    }

    /**
     * A backlog that grows shows as latency that climbs through the
     * window. Compare the second half's median with the first half's,
     * and flag a generator that fell behind its schedule.
     */
    static std::string
    overloadOf(const std::vector<double> &latencyMs,
               const std::vector<double> &lagMs)
    {
        const std::size_t half = latencyMs.size() / 2;
        if (half < 10)
            return {};
        const double first = median(std::vector<double>(
            latencyMs.begin(), latencyMs.begin() + half));
        const double second = median(
            std::vector<double>(latencyMs.begin() + half, latencyMs.end()));
        if (second > 3 * first && second > 20)
            return "second-half median latency " + std::to_string(second) +
                   " ms vs " + std::to_string(first) + " ms";
        if (quantile(lagMs, 0.99) > 100)
            return "generator p99 lag above 100 ms";
        return {};
    }

    std::uint64_t seed_ = 0;
    std::unique_ptr<Kit> kit_;
    std::unique_ptr<exec::RemoteServer> server_;
    std::unique_ptr<service::BootstrapService> svc_;
    LutId luts_[2] = {0, 0};
    service::ServiceStats beforeSvc_, afterSvc_;
    exec::RemoteServerStats beforeServer_, afterServer_;
};

} // namespace

std::unique_ptr<Workload>
makePbsSet1()
{
    return std::make_unique<PbsSet1>();
}

std::unique_ptr<Workload>
makeRemoteTrickle()
{
    return std::make_unique<RemoteTrickle>();
}

} // namespace perfbench
