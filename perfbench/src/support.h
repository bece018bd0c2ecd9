/**
 * @file
 * Shared plumbing of the repository benchmark: clocks, exact
 * quantiles, the in-memory span recorder, the metric sink and the
 * input kit every serving workload and the layer probe draw from.
 *
 * Everything here measures the library from outside: it only calls
 * public headers under src/.
 */

#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"
#include "tfhe/keyset.h"
#include "tfhe/serialize.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** The instant `seconds` after `t`. */
inline Clock::time_point
secondsAfter(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Hardware threads of this host (at least 1). */
unsigned hostThreads();

/**
 * Worker threads of the serving workloads and of every parallel layer
 * the probe times: half the host threads (at least 1). The other half
 * runs the generator, the service's own threads and the host's
 * background work, so none of them preempts a worker mid-superbatch.
 */
unsigned servingWorkers();

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/**
 * Exact q-quantile of `samples` by the nearest-rank rule: the
 * smallest sample with at least q * n samples at or below it. Never
 * interpolates and never reads a histogram. 0 for an empty set.
 */
double quantile(std::vector<double> samples, double q);

/** Median (quantile 0.5). */
double median(std::vector<double> samples);

/**
 * The highest quantile that leaves at least ten samples above it,
 * 1 - 10/n, or 0 when n <= 10: the deepest tail a sample of n can
 * state.
 */
double deepestSupportedQuantile(std::size_t n);

/**
 * The tail the sample supports: the nominal quantile, lowered to the
 * deepest one with at least ten samples beyond it, and never below
 * the median.
 */
double tailQuantile(const std::vector<double> &samples, double nominal);

/** One recorded interval. Spans of one request share `id`; `parent`
 *  is the id of the span that caused it (0 for a root). */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * In-memory span sink of a traced run. add() is thread-safe; nothing
 * touches the disk until writeChromeTrace() at the end of the run.
 * A null Spans pointer means tracing is off.
 */
class Spans
{
  public:
    Spans();

    void add(std::string_view name, std::uint64_t id,
             std::uint64_t parent, Clock::time_point start,
             Clock::time_point end);

    /** A fresh id for a probe span. */
    std::uint64_t nextId();

    std::size_t size() const;

    /** Write every span as a Chrome trace-event JSON file (loadable in
     *  Perfetto). Returns false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1ull << 40; //!< above any request id
    Clock::time_point origin_;
};

/** Time one call, recording a span when tracing; returns microseconds. */
template <class F>
double
timedUs(Spans *spans, std::string_view name, F &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    if (spans)
        spans->add(name, spans->nextId(), 0, t0, t1);
    return usBetween(t0, t1);
}

/** One reported number. `samples` is how many observations it rests
 *  on (1 for a single measurement or an exact count). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 1;
};

/** Ordered metric sink; set() replaces an earlier value of a name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, std::size_t samples = 1);
    const Metric *find(const std::string &name) const;
    const std::vector<Metric> &all() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/** The padded message space every serving LUT works over. */
inline constexpr std::uint32_t kSpace = 4;

/** LUT A: m -> (m + 1) mod 4. */
std::uint32_t lutA(std::uint32_t m);
/** LUT B: m -> 3 - m. */
std::uint32_t lutB(std::uint32_t m);

/** One 8-bit addition with its encrypted operands. */
struct AdderCase
{
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::vector<morphling::tfhe::LweCiphertext> inputs; //!< a bits, b bits
};

/**
 * Keys and inputs of one party, all derived from one seed: the key
 * set, its evaluation half, the two LUTs, a pool of encrypted
 * messages, and encrypted operands for the 8-bit ripple adder.
 */
struct Kit
{
    const morphling::tfhe::TfheParams *params = nullptr;
    morphling::tfhe::KeySet keys;
    morphling::tfhe::EvaluationKeys eval;
    std::vector<morphling::tfhe::Torus32> tableA; //!< padded LUT of lutA()
    std::vector<morphling::tfhe::Torus32> tableB; //!< padded LUT of lutB()
    std::vector<morphling::tfhe::LweCiphertext> pool;
    std::vector<std::uint32_t> poolMessages;
    morphling::circuit::Circuit adder; //!< sum bits then carry out
    std::vector<AdderCase> adderCases;

    static Kit make(const morphling::tfhe::TfheParams &params,
                    std::uint64_t seed, std::size_t poolSize,
                    std::size_t numAdderCases);

    /** True when `ct` decrypts to `expected`. */
    bool checkPadded(const morphling::tfhe::LweCiphertext &ct,
                     std::uint32_t expected) const;

    /** True when the adder outputs decrypt to a + b (nine bits). */
    bool checkSum(const std::vector<morphling::tfhe::LweCiphertext> &outs,
                  const AdderCase &c) const;
};

/** The 8-bit ripple-carry adder circuit (sum bits, then carry out). */
morphling::circuit::Circuit buildAdder8();

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_H
