/**
 * @file
 * Tests for the unified telemetry subsystem: span recording (nesting,
 * ordering, level gating, ring overflow), the metrics registry
 * (log-bucket boundaries, Prometheus and JSON golden exports), the
 * Chrome trace exporter (structure of the emitted JSON), the simulator
 * bridge, multi-threaded recording (run under the tsan build via the
 * `tsan` label), and the allocation guard: a warmed-up bootstrap
 * records spans without a single heap allocation, preserving the
 * zero-allocation hot-path guarantee.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/metrics.h"
#include "telemetry/sim_bridge.h"
#include "telemetry/telemetry.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/workspace.h"

// ---------------------------------------------------------------------
// Allocation-count hook (same shape as tests/test_workspace.cc): every
// path through global operator new bumps the counter while tracking is
// enabled.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_track{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    if (g_track.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

// Out of line for the same reason as in tests/test_workspace.cc.
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}
void
operator delete(void *p) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

namespace morphling::telemetry {
namespace {

// ---------------------------------------------------------------------
// SpanRing
// ---------------------------------------------------------------------

TEST(SpanRing, DropsWhenFullInsteadOfOverwriting)
{
    SpanRing ring(4, 7);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.tid(), 7u);
    for (std::uint64_t i = 0; i < 6; ++i) {
        const bool ok =
            ring.push(SpanEvent{"cat", "name", i, i + 1, 0});
        EXPECT_EQ(ok, i < 4);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);
    // The first four events survived untouched — nothing wrapped.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).startNs, i);

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
}

#if MORPHLING_TELEMETRY_ENABLED

// ---------------------------------------------------------------------
// Spans: nesting, ordering, level gating
// ---------------------------------------------------------------------

TEST(Span, RecordsNestingDepthAndOrdering)
{
    auto &session = TraceSession::instance();
    session.start(Level::kStage);
    {
        MORPHLING_SPAN("test", "outer");
        {
            MORPHLING_SPAN("test", "middle");
            MORPHLING_SPAN("test", "inner");
        }
    }
    session.stop();

    SpanRing &ring = session.ringForThisThread();
    ASSERT_EQ(ring.size(), 3u);
    // RAII order: the deepest span destructs (and records) first.
    const SpanEvent &inner = ring.at(0);
    const SpanEvent &middle = ring.at(1);
    const SpanEvent &outer = ring.at(2);
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_STREQ(middle.name, "middle");
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_STREQ(outer.category, "test");
    EXPECT_EQ(outer.depth, 0u);
    EXPECT_EQ(middle.depth, 1u);
    EXPECT_EQ(inner.depth, 2u);
    // Containment: children start no earlier and end no later.
    EXPECT_GE(middle.startNs, outer.startNs);
    EXPECT_LE(middle.endNs, outer.endNs);
    EXPECT_GE(inner.startNs, middle.startNs);
    EXPECT_LE(inner.endNs, middle.endNs);
    EXPECT_LE(inner.startNs, inner.endNs);
    EXPECT_EQ(session.totalSpans(), 3u);
}

TEST(Span, FineSpansRecordOnlyAtFineLevel)
{
    auto &session = TraceSession::instance();
    session.start(Level::kStage);
    {
        MORPHLING_SPAN_FINE("test", "fine");
    }
    EXPECT_EQ(session.totalSpans(), 0u);

    session.start(Level::kFine);
    {
        MORPHLING_SPAN_FINE("test", "fine");
    }
    session.stop();
    EXPECT_EQ(session.totalSpans(), 1u);
}

TEST(Span, NothingRecordsWhileStopped)
{
    auto &session = TraceSession::instance();
    session.start();
    session.stop();
    session.clear();
    {
        MORPHLING_SPAN("test", "ignored");
    }
    EXPECT_EQ(session.totalSpans(), 0u);
}

TEST(Span, StartClearsPreviousSession)
{
    auto &session = TraceSession::instance();
    session.start();
    {
        MORPHLING_SPAN("test", "first");
    }
    session.start(); // re-arm: old spans are gone
    {
        MORPHLING_SPAN("test", "second");
    }
    session.stop();
    SpanRing &ring = session.ringForThisThread();
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_STREQ(ring.at(0).name, "second");
}

// ---------------------------------------------------------------------
// Multi-threaded recording (tsan label exercises this under
// -fsanitize=thread)
// ---------------------------------------------------------------------

TEST(Span, ConcurrentRecordingFromManyThreads)
{
    auto &session = TraceSession::instance();
    session.start(Level::kFine);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kSpansPerThread = 1000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([]() {
            for (unsigned i = 0; i < kSpansPerThread; ++i) {
                MORPHLING_SPAN("mt", "work");
            }
        });
    }
    // The control thread reads published prefixes while producers run —
    // the acquire/release pair on the ring index makes this safe.
    std::uint64_t seen = session.totalSpans();
    EXPECT_LE(seen, kThreads * kSpansPerThread);
    for (auto &th : threads)
        th.join();
    session.stop();

    EXPECT_EQ(session.totalSpans(),
              std::uint64_t{kThreads} * kSpansPerThread);
    EXPECT_EQ(session.totalDropped(), 0u);
    for (const SpanRing *ring : session.rings()) {
        for (std::size_t i = 0; i < ring->size(); ++i) {
            const SpanEvent &ev = ring->at(i);
            EXPECT_LE(ev.startNs, ev.endNs);
        }
    }
}

#endif // MORPHLING_TELEMETRY_ENABLED

// ---------------------------------------------------------------------
// Histogram bucket boundaries
// ---------------------------------------------------------------------

TEST(Histogram, BucketBoundaries)
{
    // Everything <= 1 (and NaN) lands in the first bucket.
    EXPECT_EQ(Histogram::bucketIndex(-5.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1.0), 0u);
    // Bucket i is the smallest power of two holding the value.
    EXPECT_EQ(Histogram::bucketIndex(1.5), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2.0), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2.0001), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4.0), 2u);
    EXPECT_EQ(Histogram::bucketIndex(1024.0), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1025.0), 11u);
    // The top bucket is +Inf.
    EXPECT_EQ(Histogram::bucketIndex(1e19), Histogram::kBuckets - 1);

    EXPECT_EQ(Histogram::bucketUpperBound(0), 1.0);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 2.0);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1024.0);
    EXPECT_TRUE(
        std::isinf(Histogram::bucketUpperBound(Histogram::kBuckets - 1)));
}

TEST(Histogram, ObserveTracksCountSumMinMax)
{
    Histogram h("lat", "");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    h.observe(1.0);
    h.observe(3.0);
    h.observe(100.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 104.0);
    EXPECT_EQ(h.min(), 1.0);
    EXPECT_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), 104.0 / 3.0, 1e-12);
    EXPECT_EQ(h.bucketCount(0), 1u); // 1.0
    EXPECT_EQ(h.bucketCount(2), 1u); // 3.0 -> le 4
    EXPECT_EQ(h.bucketCount(7), 1u); // 100.0 -> le 128
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
}

TEST(Gauge, SetAndAdd)
{
    Gauge g("depth", "");
    g.set(4.0);
    g.add(-1.5);
    EXPECT_EQ(g.value(), 2.5);
}

// ---------------------------------------------------------------------
// Export goldens (local registry — the process-wide singleton is not
// touched, so these are exact)
// ---------------------------------------------------------------------

MetricsRegistry &
goldenRegistry()
{
    static MetricsRegistry reg;
    static bool filled = false;
    if (!filled) {
        filled = true;
        auto &c = reg.counter("service.requests", "reqs");
        c.inc(3);
        reg.gauge("queue.depth").set(2.5);
        auto &h = reg.histogram("lat");
        h.observe(1.0);
        h.observe(3.0);
        h.observe(100.0);
    }
    return reg;
}

TEST(MetricsExport, PrometheusGolden)
{
    std::ostringstream os;
    goldenRegistry().writePrometheus(os);
    const std::string expected =
        "# HELP morphling_service_requests reqs\n"
        "# TYPE morphling_service_requests counter\n"
        "morphling_service_requests 3\n"
        "# TYPE morphling_queue_depth gauge\n"
        "morphling_queue_depth 2.5\n"
        "# TYPE morphling_lat histogram\n"
        "morphling_lat_bucket{le=\"1\"} 1\n"
        "morphling_lat_bucket{le=\"2\"} 1\n"
        "morphling_lat_bucket{le=\"4\"} 2\n"
        "morphling_lat_bucket{le=\"8\"} 2\n"
        "morphling_lat_bucket{le=\"16\"} 2\n"
        "morphling_lat_bucket{le=\"32\"} 2\n"
        "morphling_lat_bucket{le=\"64\"} 2\n"
        "morphling_lat_bucket{le=\"128\"} 3\n"
        "morphling_lat_bucket{le=\"+Inf\"} 3\n"
        "morphling_lat_sum 104\n"
        "morphling_lat_count 3\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(MetricsExport, JsonGolden)
{
    std::ostringstream os;
    goldenRegistry().writeJson(os);
    const std::string expected =
        "{\n"
        "  \"counters\": {\n"
        "    \"service.requests\": 3\n"
        "  },\n"
        "  \"gauges\": {\n"
        "    \"queue.depth\": 2.5\n"
        "  },\n"
        "  \"histograms\": {\n"
        "    \"lat\": {\"count\": 3, \"sum\": 104, \"min\": 1, "
        "\"max\": 100, \"buckets\": [{\"le\": 1, \"count\": 1}, "
        "{\"le\": 4, \"count\": 1}, {\"le\": 128, \"count\": 1}]}\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(MetricsExport, EmptyRegistryIsValid)
{
    MetricsRegistry reg;
    std::ostringstream prom, json;
    reg.writePrometheus(prom);
    reg.writeJson(json);
    EXPECT_EQ(prom.str(), "");
    EXPECT_EQ(json.str(),
              "{\n  \"counters\": {},\n  \"gauges\": {},\n"
              "  \"histograms\": {}\n}\n");
}

TEST(MetricsRegistry, HandlesAreStable)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
}

// ---------------------------------------------------------------------
// Simulator bridge
// ---------------------------------------------------------------------

TEST(SimBridge, InstallRecordUninstall)
{
    EXPECT_EQ(SimTraceRecorder::current(), nullptr);
    {
        SimTraceRecorder rec;
        rec.install();
        EXPECT_EQ(SimTraceRecorder::current(), &rec);
        MORPHLING_SIM_INTERVAL("hbm.ch0", "xfer", 10, 20, 256);
        MORPHLING_SIM_INSTANT("log.xpu", "stall", 15);
#if MORPHLING_TELEMETRY_ENABLED
        ASSERT_EQ(rec.intervals().size(), 1u);
        const auto iv = rec.intervals()[0];
        EXPECT_EQ(iv.track, "hbm.ch0");
        EXPECT_EQ(iv.name, "xfer");
        EXPECT_EQ(iv.startTick, 10u);
        EXPECT_EQ(iv.endTick, 20u);
        EXPECT_EQ(iv.bytes, 256u);
        ASSERT_EQ(rec.instants().size(), 1u);
        EXPECT_EQ(rec.instants()[0].tick, 15u);
#endif
    }
    // The destructor uninstalled the recorder.
    EXPECT_EQ(SimTraceRecorder::current(), nullptr);
}

TEST(SimBridge, DropsBeyondMaxEvents)
{
    SimTraceRecorder rec(/*max_events=*/3);
    rec.interval("t", "a", 0, 1);
    rec.interval("t", "b", 1, 2);
    rec.instant("t", "c", 2);
    rec.interval("t", "overflow", 2, 3);
    rec.instant("t", "overflow", 3);
    EXPECT_EQ(rec.intervals().size() + rec.instants().size(), 3u);
    EXPECT_EQ(rec.droppedEvents(), 2u);
}

#if MORPHLING_TELEMETRY_ENABLED

TEST(SimBridge, SimulationEmitsComponentTraces)
{
    SimTraceRecorder rec;
    rec.install();
    arch::Accelerator acc(arch::ArchConfig::morphlingDefault(),
                          tfhe::paramsSetI());
    acc.runBootstrapBatch(32);
    rec.uninstall();

    const auto has = [&](const std::string &track,
                         const std::string &prefix) {
        for (const auto &in : rec.instants())
            if (in.track == track && in.name.rfind(prefix, 0) == 0)
                return true;
        return false;
    };
    EXPECT_TRUE(has("log.xpu", "wave "));
    EXPECT_TRUE(has("log.sched", "g0 issue DMA.LD_LWE"));
    EXPECT_TRUE(has("log.sched", "g0 issue XPU.BR"));
}

#endif // MORPHLING_TELEMETRY_ENABLED

// ---------------------------------------------------------------------
// Chrome trace exporter
// ---------------------------------------------------------------------

TEST(ChromeTrace, EmitsBothClockDomains)
{
    auto &session = TraceSession::instance();
    SimTraceRecorder rec;
    rec.interval("xpu", "iteration", 0, 1200, 0);
    rec.interval("hbm.ch0", "xfer", 100, 300, 4096);
    rec.instant("log.xpu", "wave starts", 50);

#if MORPHLING_TELEMETRY_ENABLED
    session.start();
    {
        MORPHLING_SPAN("tfhe", "bootstrap");
    }
    session.stop();
#endif

    std::ostringstream os;
    writeChromeTrace(os, session, &rec);
    const std::string trace = os.str();

    // Structure Perfetto needs: traceEvents array, metadata naming the
    // virtual-time process, complete ("X") and instant ("i") events.
    EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(trace.find("sim (virtual time)"), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"xpu\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"hbm.ch0\""), std::string::npos);
    EXPECT_NE(trace.find("\"bytes\":4096"), std::string::npos);
    // 1200 ticks at the default 1.2 GHz are exactly one microsecond.
    EXPECT_NE(trace.find("\"dur\":1.000"), std::string::npos);
#if MORPHLING_TELEMETRY_ENABLED
    EXPECT_NE(trace.find("cpu (wall clock)"), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"tfhe\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"bootstrap\""), std::string::npos);
#endif
    // Well-formed closing.
    EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");
}

// ---------------------------------------------------------------------
// Zero-allocation guards
// ---------------------------------------------------------------------

TEST(ZeroAlloc, WarmBootstrapWithInactiveSessionDoesNotAllocate)
{
    using namespace morphling::tfhe;
    const TfheParams &params = paramsTest();
    Rng rng(0x7E1E);
    const KeySet keys = KeySet::generate(params, rng);
    const auto lut =
        makePaddedLut(4, [](std::uint32_t m) { return m; });
    const auto tp = buildTestPolynomial(params.polyDegree, lut);
    const auto ct = encryptPadded(keys, 1, 4, rng);

    auto &ws = BootstrapWorkspace::forThisThread();
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws); // warm-up

    TraceSession::instance().stop();
    g_allocs.store(0);
    g_track.store(true);
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
    g_track.store(false);
    EXPECT_EQ(g_allocs.load(), 0u)
        << "telemetry must not allocate on the warmed-up hot path "
           "while no session records";
}

#if MORPHLING_TELEMETRY_ENABLED

TEST(ZeroAlloc, WarmBootstrapWithActiveSessionDoesNotAllocate)
{
    using namespace morphling::tfhe;
    const TfheParams &params = paramsTest();
    Rng rng(0x7E1F);
    const KeySet keys = KeySet::generate(params, rng);
    const auto lut =
        makePaddedLut(4, [](std::uint32_t m) { return m; });
    const auto tp = buildTestPolynomial(params.polyDegree, lut);
    const auto ct = encryptPadded(keys, 1, 4, rng);

    auto &ws = BootstrapWorkspace::forThisThread();
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws); // warm-up

    auto &session = TraceSession::instance();
    session.start(Level::kFine);
    {
        MORPHLING_SPAN("test", "ring warm-up"); // first touch registers
    }

    g_allocs.store(0);
    g_track.store(true);
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
    g_track.store(false);
    session.stop();
    EXPECT_GT(session.totalSpans(), 1u);
    EXPECT_EQ(g_allocs.load(), 0u)
        << "span recording must reuse the preallocated ring";
}

#else // !MORPHLING_TELEMETRY_ENABLED

TEST(TelemetryOff, MacrosCompileToNothing)
{
    // The statement forms are valid and side-effect free...
    MORPHLING_SPAN("test", "gone");
    MORPHLING_SPAN_FINE("test", "gone");
    MORPHLING_SIM_INTERVAL("t", "gone", 0, 1, 0);
    MORPHLING_SIM_INSTANT("t", "gone", 0);
    // ...and MORPHLING_TELEMETRY_ONLY drops its body entirely.
    bool ran = false;
    MORPHLING_TELEMETRY_ONLY(ran = true;)
    EXPECT_FALSE(ran);
    EXPECT_EQ(TraceSession::instance().totalSpans(), 0u);
}

#endif // MORPHLING_TELEMETRY_ENABLED

} // namespace
} // namespace morphling::telemetry
