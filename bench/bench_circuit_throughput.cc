/**
 * @file
 * Circuit IR throughput: gate bootstraps per second through the
 * exec::CircuitExecutor at 1/2/4 threads per batch.
 *
 * The workload is a batch of independent 8-bit ripple-carry adders
 * fused into one circuit::Circuit, so every bootstrap level is wide
 * enough for FunctionalBackend's group-parallel path to fan out. The
 * wall-clock gates/sec is the figure here; on a single-core CI
 * container expect flat scaling (the parallel run's value there is its
 * bit-identity, checked in tests).
 */

#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/circuit_executor.h"
#include "exec/functional_backend.h"
#include "tfhe/encoding.h"

using namespace morphling;

namespace {

/** `count` independent 8-bit adders in one circuit. */
circuit::Circuit
adderBatch(unsigned count, unsigned bits)
{
    circuit::Circuit c;
    for (unsigned k = 0; k < count; ++k) {
        std::vector<circuit::Wire> a, b, sum;
        for (unsigned i = 0; i < bits; ++i)
            a.push_back(c.bitInput());
        for (unsigned i = 0; i < bits; ++i)
            b.push_back(c.bitInput());
        const auto carry = circuit::buildRippleAdder(c, a, b, sum);
        for (auto w : sum)
            c.markOutput(w);
        c.markOutput(carry);
    }
    return c;
}

double
runOnceMs(const tfhe::EvaluationKeys &keys,
          const circuit::LoweredCircuit &lowered,
          const std::vector<tfhe::LweCiphertext> &inputs,
          unsigned threads)
{
    exec::FunctionalBackend backend(keys);
    tfhe::BatchOptions options;
    options.threads = threads;
    exec::CircuitExecutor executor(keys.params, backend, options);
    const auto t0 = std::chrono::steady_clock::now();
    (void)executor.run(lowered, inputs);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "circuit_throughput");
    bench::banner("Circuit throughput",
                  "gate bootstraps/sec through exec::CircuitExecutor "
                  "at 1/2/4 threads per batch");

    constexpr unsigned kAdders = 8;
    constexpr unsigned kBits = 8;
    Rng rng(0xC14C);
    const auto keyset =
        tfhe::KeySet::generate(tfhe::paramsTest(), rng);
    const auto keys = tfhe::EvaluationKeys::fromKeySet(keyset);

    const auto c = adderBatch(kAdders, kBits);
    const compiler::SwScheduler scheduler(keyset.params);
    const auto lowered = circuit::lower(c, scheduler);
    std::vector<tfhe::LweCiphertext> inputs;
    for (unsigned i = 0; i < c.numInputs(); ++i)
        inputs.push_back(tfhe::encryptBit(keyset, (i % 3) == 0, rng));

    std::cout << "  workload: " << kAdders << " x " << kBits
              << "-bit adders = " << c.bootstrapCount()
              << " gate bootstraps over " << c.bootstrapDepth()
              << " levels\n\n";

    // Warm FFT tables and allocator pools before timing.
    (void)runOnceMs(keys, lowered, inputs, 1);

    constexpr unsigned kReps = 3;
    const double gates = static_cast<double>(c.bootstrapCount());
    double base_wall = 0;
    Table t({"Threads", "Wall (ms)", "Gates/s", "Speedup"});
    for (const unsigned threads : {1u, 2u, 4u}) {
        double best = 0;
        for (unsigned rep = 0; rep < kReps; ++rep) {
            const double ms =
                runOnceMs(keys, lowered, inputs, threads);
            if (rep == 0 || ms < best)
                best = ms;
        }
        if (threads == 1)
            base_wall = best;
        const double gps = gates / (best / 1e3);
        t.addRow({std::to_string(threads), Table::fmt(best, 1),
                  Table::fmtCount(static_cast<std::uint64_t>(gps)),
                  bench::times(base_wall / best, 2)});
        const std::string params = "threads=" + std::to_string(threads);
        report.add("gates_per_sec", params, gps, "gates/s");
        report.add("wall_ms", params, best, "ms");
    }
    t.print(std::cout);
    bench::note("scaling tracks the core count (flat on single-core "
                "CI); bit-identity at every thread count is asserted "
                "in tests/test_circuit_exec");
    return 0;
}
