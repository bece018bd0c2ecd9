/**
 * @file
 * The benchmark binary:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--git-sha <sha>] [--spans-dir <dir>]
 *
 * Sets the workload up three times (reporting the median), then
 * measures one window with tracing off (--trace 0: end-to-end metrics)
 * or two half windows, untraced then traced, followed by the layer
 * probe and one cycle-model pass (--trace 1: per-layer metrics). The
 * last stdout line is one JSON object; perfbench/run.py turns it into
 * the benchmark's result line.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "compiler/sw_scheduler.h"
#include "tfhe/fft_dispatch.h"
#include "workloads.h"

using namespace perfbench;
using namespace morphling;

namespace {

constexpr unsigned kSetupReps = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string gitSha = "unknown";
    std::string spansDir = ".bench_build/perfbench/spans";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--git-sha")
            args.gitSha = value;
        else if (key == "--spans-dir")
            args.spansDir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The end-to-end metrics of one untraced window. */
void
endToEnd(const WindowResult &r, const std::vector<double> &setupS,
         Metrics &out)
{
    out.set("setup_s", median(setupS), "s", setupS.size());
    out.set("bs_per_s", r.bsPerS, "1/s", r.bootstraps);
    out.set("latency_p50_ms", quantile(r.latencyMs, 0.50), "ms",
            r.latencyMs.size());
    out.set("ok_frac",
            r.attempted ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0,
            "frac", r.attempted);
    out.set("peak_rss_mb", peakRssMb(), "MiB");
    std::cout << "completed " << r.bootstraps << " bootstraps in "
              << r.elapsedS << " s ("
              << (r.elapsedS > 0 ? r.bootstraps / r.elapsedS : 0)
              << " BS/s over the whole window)\n";
    std::cout << "latency samples " << r.latencyMs.size()
              << ", deepest quantile with >= 10 beyond: "
              << deepestSupportedQuantile(r.latencyMs.size())
              << "; job samples " << r.jobMs.size() << ", deepest: "
              << deepestSupportedQuantile(r.jobMs.size()) << "\n";
}

/**
 * bench.accounted_frac: how much of the measured per-bootstrap wall
 * time the layer peel explains, raw tfhe throughput + exec added time
 * per bootstrap across the workers + service added time per
 * bootstrap, over 1 / bs_per_s.
 */
double
accountedFrac(const Metrics &layers, double bsPerS)
{
    const Metric *raw = layers.find("tfhe.batch_bs_per_s");
    const Metric *exec = layers.find("exec.functional_added_us");
    const Metric *svc = layers.find("service.added_us_per_bs");
    if (!raw || !exec || !svc || raw->value <= 0 || bsPerS <= 0)
        return 0;
    const double accounted =
        1e6 / raw->value +
        exec->value / compiler::kSuperbatchSize / servingWorkers() +
        svc->value;
    return accounted / (1e6 / bsPerS);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--git-sha <sha>] "
                     "[--spans-dir <dir>]\n";
        return 2;
    }
    if (!makeWorkload(args.workload)) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    const char *tier =
        tfhe::fftDispatchTierName(tfhe::activeFftDispatchTier());
    std::cout << "host: nproc=" << hostThreads()
              << " workers=" << servingWorkers() << " fft_tier=" << tier
              << " build=" << PERFBENCH_BUILD_TYPE
              << " telemetry=" << (MORPHLING_TELEMETRY_ENABLED ? "on" : "off")
              << " git=" << args.gitSha << " workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << "\n";

    try {
        std::vector<double> setupS;
        std::unique_ptr<Workload> workload;
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            workload.reset();
            const auto t0 = rep == 0 ? processStart : Clock::now();
            workload = makeWorkload(args.workload);
            workload->setup(args.seed);
            setupS.push_back(secondsBetween(t0, Clock::now()));
            std::cout << "setup " << rep << ": " << setupS.back() << " s\n";
        }

        bool correct = true;
        Metrics metrics;
        WindowResult measured;
        if (!args.trace) {
            measured = workload->run(args.seconds, nullptr);
            endToEnd(measured, setupS, metrics);
        } else {
            const WindowResult plain =
                workload->run(args.seconds / 2, nullptr);
            Spans spans;
            measured = workload->run(args.seconds / 2, &spans);
            correct &= plain.wrong == 0;

            correct &= probeLayers(workload->kit(), &spans, metrics);
            simLayers(runSimPass(&spans, false), metrics);
            workload->windowLayers(metrics);
            metrics.set("bench.latency_p99_ms",
                        tailQuantile(measured.latencyMs, 0.99), "ms",
                        measured.latencyMs.size());
            metrics.set("bench.job_p90_ms", tailQuantile(measured.jobMs, 0.90),
                        "ms", measured.jobMs.size());
            metrics.set("bench.gen_lag_p99_ms",
                        quantile(measured.genLagMs, 0.99), "ms",
                        measured.genLagMs.size());
            metrics.set("bench.trace_overhead_frac",
                        plain.bsPerS > 0
                            ? 1.0 - measured.bsPerS / plain.bsPerS
                            : 0,
                        "frac");
            metrics.set("bench.accounted_frac",
                        accountedFrac(metrics, measured.bsPerS), "frac");

            std::filesystem::create_directories(args.spansDir);
            const std::string path = args.spansDir + "/" + args.workload +
                                     "-seed" + std::to_string(args.seed) +
                                     ".json";
            if (spans.writeChromeTrace(path))
                std::cout << "spans: " << spans.size() << " written to "
                          << path << "\n";
            else
                std::cerr << "perfbench: cannot write " << path << "\n";
        }
        if (!measured.overload.empty()) {
            std::cerr << "perfbench: overloaded, latency not reported: "
                      << measured.overload << "\n";
            return 3;
        }
        correct &= measured.wrong == 0;

        // The model check every run makes: Table V at sets I-IV twice,
        // identical both times, with set I pinned to the number of
        // record.
        const auto tableV = runSimPass(nullptr, true);
        if (mismatches(tableV, runSimPass(nullptr, true)) != 0) {
            std::cerr << "perfbench: the cycle model is not deterministic\n";
            correct = false;
        }
        Metrics sim;
        simEndToEnd(tableV, sim);
        const Metric *set1 = sim.find("sim_bs_per_s");
        if (!set1 || static_cast<std::uint64_t>(set1->value) !=
                         kTable5SetIBs) {
            std::cerr << "perfbench: set-I simulated throughput "
                      << (set1 ? set1->value : 0) << " BS/s, expected "
                      << kTable5SetIBs << "\n";
            correct = false;
        }
        if (!args.trace) {
            for (const Metric &m : sim.all())
                metrics.set(m.name, m.value, m.unit, m.samples);
        }

        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << measured.attempted
                  << ", \"failed\": " << measured.failed
                  << ", \"host\": {\"nproc\": " << hostThreads()
                  << ", \"workers\": " << servingWorkers()
                  << ", \"fft_tier\": " << jsonString(tier)
                  << ", \"build\": " << jsonString(PERFBENCH_BUILD_TYPE)
                  << ", \"telemetry\": "
                  << (MORPHLING_TELEMETRY_ENABLED ? "true" : "false")
                  << ", \"git\": " << jsonString(args.gitSha)
                  << ", \"seed\": " << args.seed << "}, \"metrics\": {";
        bool first = true;
        for (const Metric &m : metrics.all()) {
            std::cout << (first ? "" : ", ") << jsonString(m.name)
                      << ": {\"value\": " << jsonNumber(m.value)
                      << ", \"unit\": " << jsonString(m.unit)
                      << ", \"samples\": " << m.samples << "}";
            first = false;
        }
        std::cout << "}}" << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}

namespace perfbench {

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "pbs-set1")
        return makePbsSet1();
    if (name == "remote-trickle")
        return makeRemoteTrickle();
    return nullptr;
}

} // namespace perfbench
