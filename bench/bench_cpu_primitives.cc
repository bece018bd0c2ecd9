/**
 * @file
 * Microbenchmarks of this repository's TFHE primitives on the host CPU
 * (google-benchmark): negacyclic FFT, external product, blind-rotation
 * step, key switching, and full programmable bootstrapping. These are
 * the "Concrete-equivalent" numbers the CPU rows of the comparison
 * tables are grounded in.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tfhe/batch.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/fft.h"
#include "tfhe/fft_dispatch.h"
#include "tfhe/fft_kernels.h"
#include "tfhe/workspace.h"

using namespace morphling;
using namespace morphling::tfhe;

namespace {

/** Key material shared across benchmark iterations (expensive to
 *  generate). */
const KeySet &
keysFor(const std::string &name)
{
    static std::map<std::string, KeySet> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        Rng rng(0xBE27C4);
        it = cache.emplace(name,
                           KeySet::generate(paramsByName(name), rng))
                 .first;
    }
    return it->second;
}

void
BM_ForwardFft(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const auto &fft = NegacyclicFft::forDegree(n);
    Rng rng(1);
    TorusPolynomial poly(n);
    for (unsigned i = 0; i < n; ++i)
        poly[i] = rng.nextU32();
    FourierPolynomial out(n);
    for (auto _ : state) {
        fft.forward(poly, out);
        benchmark::DoNotOptimize(out.re(0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardFft)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void
BM_InverseFft(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const auto &fft = NegacyclicFft::forDegree(n);
    Rng rng(2);
    FourierPolynomial in(n);
    for (unsigned i = 0; i < in.size(); ++i) {
        in.re(i) = rng.nextDouble() * 1e6;
        in.im(i) = rng.nextDouble() * 1e6;
    }
    TorusPolynomial out(n);
    for (auto _ : state) {
        fft.inverse(in, out);
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InverseFft)->Arg(512)->Arg(1024)->Arg(2048);

void
BM_ExternalProduct(benchmark::State &state)
{
    const auto &keys = keysFor("I");
    Rng rng(3);
    const auto tp = constantTestPolynomial(
        keys.params.polyDegree, doubleToTorus32(0.125));
    GlweCiphertext acc = GlweCiphertext::trivial(
        keys.params.glweDimension, tp);
    for (auto _ : state) {
        acc = externalProductFourier(keys.bsk.entry(0), acc);
        benchmark::DoNotOptimize(acc.body()[0]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExternalProduct);

void
BM_CmuxRotate(benchmark::State &state)
{
    const auto &keys = keysFor("I");
    const auto tp = constantTestPolynomial(
        keys.params.polyDegree, doubleToTorus32(0.125));
    GlweCiphertext acc = GlweCiphertext::trivial(
        keys.params.glweDimension, tp);
    unsigned power = 1;
    for (auto _ : state) {
        acc = cmuxRotate(keys.bsk.entry(0), acc, power);
        power = power % (2 * keys.params.polyDegree - 1) + 1;
        benchmark::DoNotOptimize(acc.body()[0]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmuxRotate);

void
BM_WorkspaceExternalProduct(benchmark::State &state)
{
    // The explicit-workspace entry point: no result-ciphertext
    // allocation per call either (the legacy wrapper above still
    // returns by value).
    const auto &keys = keysFor("I");
    const auto tp = constantTestPolynomial(
        keys.params.polyDegree, doubleToTorus32(0.125));
    GlweCiphertext acc = GlweCiphertext::trivial(
        keys.params.glweDimension, tp);
    GlweCiphertext result;
    BootstrapWorkspace ws;
    for (auto _ : state) {
        externalProductFourier(keys.bsk.entry(0), acc, result, ws);
        benchmark::DoNotOptimize(result.body()[0]);
        std::swap(acc, result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkspaceExternalProduct);

void
BM_ProgrammableBootstrap(benchmark::State &state)
{
    // Per-set full bootstrap: these are the Table V "CPU" equivalents
    // for this host.
    static const char *kSets[] = {"I", "II", "III"};
    const auto &keys = keysFor(kSets[state.range(0)]);
    Rng rng(5);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    auto ct = encryptPadded(keys, 1, 4, rng);
    for (auto _ : state) {
        ct = programmableBootstrap(keys, ct, lut);
        benchmark::DoNotOptimize(ct.body());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::string("set ") + kSets[state.range(0)]);
}
BENCHMARK(BM_ProgrammableBootstrap)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_WorkspaceBootstrap(benchmark::State &state)
{
    // The pure zero-allocation path: explicit workspace, prebuilt test
    // polynomial, output written in place. Difference to
    // BM_ProgrammableBootstrap is the per-call LUT/test-poly build and
    // result handling, not the transform pipeline (shared).
    static const char *kSets[] = {"I", "II", "III"};
    const auto &keys = keysFor(kSets[state.range(0)]);
    Rng rng(8);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto tp = buildTestPolynomial(keys.params.polyDegree, lut);
    auto ct = encryptPadded(keys, 1, 4, rng);
    LweCiphertext out;
    BootstrapWorkspace ws;
    for (auto _ : state) {
        bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
        benchmark::DoNotOptimize(out.body());
        std::swap(ct, out);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::string("set ") + kSets[state.range(0)]);
}
BENCHMARK(BM_WorkspaceBootstrap)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void
BM_Batch64(benchmark::State &state)
{
    // One superbatch-sized batch (64 = compiler::kSuperbatchSize) on a
    // single thread: the service-layer unit of work, and the CPU row of
    // the 64-slot throughput comparisons in docs/perf.md.
    const auto &keys = keysFor("I");
    Rng rng(9);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    std::vector<LweCiphertext> batch;
    for (unsigned i = 0; i < 64; ++i)
        batch.push_back(encryptPadded(keys, i % 4, 4, rng));
    BatchOptions opts;
    opts.threads = 1;
    for (auto _ : state) {
        auto out = batchBootstrap(keys, batch, lut, opts);
        benchmark::DoNotOptimize(out.back().body());
    }
    state.SetItemsProcessed(state.iterations() * batch.size());
    state.SetLabel("64 inputs, 1 thread, set I");
}
BENCHMARK(BM_Batch64)->Unit(benchmark::kMillisecond);

void
BM_ParallelBatchBootstrap(benchmark::State &state)
{
    // Multicore scaling of this library (the basis of the CPU cost
    // model's parallel-efficiency assumption).
    const auto &keys = keysFor("I");
    const auto threads = static_cast<unsigned>(state.range(0));
    Rng rng(7);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    std::vector<LweCiphertext> batch;
    for (unsigned i = 0; i < 2 * threads; ++i)
        batch.push_back(encryptPadded(keys, i % 4, 4, rng));
    BatchOptions opts;
    opts.threads = threads;
    for (auto _ : state) {
        auto out = batchBootstrap(keys, batch, lut, opts);
        benchmark::DoNotOptimize(out.back().body());
    }
    state.SetItemsProcessed(state.iterations() * batch.size());
    state.SetLabel(std::to_string(threads) + " threads, set I");
}
BENCHMARK(BM_ParallelBatchBootstrap)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// ---------------------------------------------------------------------
// SIMD kernel tiers: the benchmarks below are registered once per tier
// the host supports (BM_BatchFftForward/avx512/1024, ...), forcing the
// dispatch so the per-tier speedups land side by side in
// BENCH_cpu_primitives.json. Items processed counts polynomials, so
// per-item times compare directly across tiers and against the
// single-polynomial BM_ForwardFft/BM_InverseFft.
// ---------------------------------------------------------------------

constexpr unsigned kFftBatch = 8; //!< l_b*(k+1) of set I, one CMux load

void
runBatchFftForward(benchmark::State &state, FftDispatchTier tier,
                   unsigned n)
{
    forceFftDispatchTier(tier);
    const NegacyclicFft fft(n);
    Rng rng(11);
    std::vector<IntPolynomial> polys(kFftBatch, IntPolynomial(n));
    std::vector<FourierPolynomial> spectra(kFftBatch,
                                           FourierPolynomial(n));
    std::vector<const std::int32_t *> in;
    std::vector<FourierPolynomial *> out;
    for (unsigned i = 0; i < kFftBatch; ++i) {
        for (unsigned j = 0; j < n; ++j)
            polys[i][j] = static_cast<std::int32_t>(rng.nextU32());
        in.push_back(polys[i].data());
        out.push_back(&spectra[i]);
    }
    for (auto _ : state) {
        fft.forward(in.data(), out.data(), kFftBatch);
        benchmark::DoNotOptimize(spectra[0].re(0));
    }
    state.SetItemsProcessed(state.iterations() * kFftBatch);
    state.SetLabel(fftDispatchTierName(tier));
    resetFftDispatchTier();
}

void
runBatchFftInverse(benchmark::State &state, FftDispatchTier tier,
                   unsigned n)
{
    forceFftDispatchTier(tier);
    const NegacyclicFft fft(n);
    Rng rng(12);
    std::vector<FourierPolynomial> spectra(kFftBatch,
                                           FourierPolynomial(n));
    std::vector<TorusPolynomial> outs(kFftBatch, TorusPolynomial(n));
    std::vector<const FourierPolynomial *> in;
    std::vector<TorusPolynomial *> out;
    for (unsigned i = 0; i < kFftBatch; ++i) {
        for (unsigned j = 0; j < spectra[i].size(); ++j) {
            spectra[i].re(j) = rng.nextDouble() * 1e6;
            spectra[i].im(j) = rng.nextDouble() * 1e6;
        }
        in.push_back(&spectra[i]);
        out.push_back(&outs[i]);
    }
    for (auto _ : state) {
        fft.inverseAdd(in.data(), out.data(), kFftBatch);
        benchmark::DoNotOptimize(outs[0][0]);
    }
    state.SetItemsProcessed(state.iterations() * kFftBatch);
    state.SetLabel(fftDispatchTierName(tier));
    resetFftDispatchTier();
}

void
runDispatchBootstrap(benchmark::State &state, FftDispatchTier tier)
{
    // The full workspace bootstrap under a forced kernel tier: the
    // end-to-end evidence for the SIMD speedup (scalar row vs widest
    // row of this family).
    forceFftDispatchTier(tier);
    const auto &keys = keysFor("I");
    Rng rng(13);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto tp = buildTestPolynomial(keys.params.polyDegree, lut);
    auto ct = encryptPadded(keys, 1, 4, rng);
    LweCiphertext out;
    BootstrapWorkspace ws;
    for (auto _ : state) {
        bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
        benchmark::DoNotOptimize(out.body());
        std::swap(ct, out);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::string(fftDispatchTierName(tier)) + ", set I");
    resetFftDispatchTier();
}

constexpr unsigned kChunk = 16; //!< compiler::kGroupSize, one XPU.BR

void
runChunkBlindRotate(benchmark::State &state, FftDispatchTier tier,
                    bool batched)
{
    // One set-I chunk's XPU.BR on one thread: one blindRotateBatch,
    // whose every tile takes BSK_i before any takes BSK_{i+1} (the
    // chunk reads the BSK once), or (serial) one blindRotate per
    // ciphertext, which reads it 16 times.
    forceFftDispatchTier(tier);
    const auto &keys = keysFor("I");
    Rng rng(14);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto tp = buildTestPolynomial(keys.params.polyDegree, lut);
    std::vector<std::vector<std::uint32_t>> switched(kChunk);
    for (unsigned i = 0; i < kChunk; ++i)
        switched[i] = modSwitch(encryptPadded(keys, i % 4, 4, rng),
                                keys.params.polyDegree);
    std::vector<GlweCiphertext> accs(kChunk);
    BootstrapWorkspace ws;
    for (auto _ : state) {
        if (batched) {
            blindRotateBatch(keys.bsk, tp, switched.data(), accs.data(),
                             kChunk, ws);
        } else {
            for (unsigned i = 0; i < kChunk; ++i)
                blindRotate(keys.bsk, tp, switched[i], accs[i], ws);
        }
        benchmark::DoNotOptimize(accs.back().body()[0]);
    }
    state.SetItemsProcessed(state.iterations() * kChunk);
    state.SetLabel(std::string(fftDispatchTierName(tier)) +
                   ", 16 LWE, set I");
    resetFftDispatchTier();
}

void
runLaneTileCmux(benchmark::State &state, FftDispatchTier tier)
{
    // One set-I CMux round of a lane-resident tile (W ciphertexts, W the
    // tier's lane width) through the tier's laneTileCmux kernel: the
    // gathered rotate-and-decompose, the forward with the twist in stage
    // 0, the MAC, and the inverse with the rounding store in stage 0.
    // Each call takes the next of 64 BSK_i (4 MiB at set I) and its own
    // rotation powers, so, as in a blind rotation, the key is never hot
    // in L1 or L2.
    forceFftDispatchTier(tier);
    const auto &keys = keysFor("I");
    const auto &params = keys.params;
    const unsigned cols = params.glweDimension + 1;
    const unsigned rows = cols * params.bskLevels;
    const detail::BatchKernels &kernels = detail::activeBatchKernels();
    const unsigned w = kernels.width;
    BootstrapWorkspace ws;
    ws.ensure(params.glweDimension, params.polyDegree, params.bskLevels,
              params.bskBaseBits, 1, w, w);
    Rng rng(15);
    for (auto &a : ws.laneAcc)
        a = rng.nextU32();
    constexpr unsigned kKeys = 64;
    std::vector<const double *> key_re, key_im;
    std::vector<unsigned> powers;
    for (unsigned i = 0; i < kKeys; ++i) {
        const auto &ggsw = keys.bsk.entry(i);
        for (unsigned r = 0; r < rows; ++r) {
            for (unsigned c = 0; c < cols; ++c) {
                key_re.push_back(ggsw.at(r, c).reData());
                key_im.push_back(ggsw.at(r, c).imData());
            }
        }
        for (unsigned t = 0; t < w; ++t)
            powers.push_back(rng.nextU32() % (2 * params.polyDegree));
    }
    const auto &view = NegacyclicFft::forDegree(params.polyDegree).view();
    unsigned key = 0;
    for (auto _ : state) {
        kernels.laneTileCmux(view, ws.plan, cols, powers.data() + key * w,
                             key_re.data() + key * rows * cols,
                             key_im.data() + key * rows * cols,
                             ws.laneAcc.data(), ws.laneDigits.data(),
                             ws.digitPlanes.data(), ws.accPlanes.data());
        key = (key + 1) % kKeys;
        benchmark::DoNotOptimize(ws.laneAcc[0]);
    }
    state.SetItemsProcessed(state.iterations() * w);
    state.SetLabel(std::string(fftDispatchTierName(tier)) + ", " +
                   std::to_string(w) + " LWE, set I");
    resetFftDispatchTier();
}

void
runKeySwitch(benchmark::State &state, FftDispatchTier tier, unsigned count)
{
    // Set-I key switches (kN = 1024 masks, l_k = 2, rows of n+1 = 501
    // words) through the tier's row kernel: one chunk-major applyBatch
    // over `count` distinct ciphertexts, as VPU.KS runs a chunk (count
    // 1 is applyInto).
    forceFftDispatchTier(tier);
    const auto &keys = keysFor("I");
    Rng rng(4);
    std::vector<LweCiphertext> extracted;
    for (unsigned i = 0; i < count; ++i)
        extracted.push_back(
            GlweCiphertext::encrypt(
                keys.glweKey,
                constantTestPolynomial(keys.params.polyDegree, 0),
                keys.params.glweNoiseStd, rng)
                .sampleExtract());
    std::vector<LweCiphertext> out(count);
    for (auto _ : state) {
        keys.ksk.applyBatch(extracted.data(), out.data(), count);
        benchmark::DoNotOptimize(out.back().body());
    }
    state.SetItemsProcessed(state.iterations() * count);
    state.SetLabel(std::string(fftDispatchTierName(tier)) + ", " +
                   std::to_string(count) + " LWE, set I");
    resetFftDispatchTier();
}

void
registerDispatchTierBenchmarks()
{
    for (const auto tier : supportedFftDispatchTiers()) {
        const std::string tn = fftDispatchTierName(tier);
        for (const unsigned n : {1024u, 2048u}) {
            benchmark::RegisterBenchmark(
                ("BM_BatchFftForward/" + tn + "/" + std::to_string(n))
                    .c_str(),
                [tier, n](benchmark::State &s) {
                    runBatchFftForward(s, tier, n);
                });
            benchmark::RegisterBenchmark(
                ("BM_BatchFftInverse/" + tn + "/" + std::to_string(n))
                    .c_str(),
                [tier, n](benchmark::State &s) {
                    runBatchFftInverse(s, tier, n);
                });
        }
        benchmark::RegisterBenchmark(
            ("BM_DispatchBootstrap/" + tn).c_str(),
            [tier](benchmark::State &s) { runDispatchBootstrap(s, tier); })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_ChunkBlindRotate/" + tn).c_str(),
            [tier](benchmark::State &s) {
                runChunkBlindRotate(s, tier, true);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_ChunkBlindRotate/" + tn + "/serial").c_str(),
            [tier](benchmark::State &s) {
                runChunkBlindRotate(s, tier, false);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_LaneTileCmux/" + tn).c_str(),
            [tier](benchmark::State &s) { runLaneTileCmux(s, tier); })
            ->Unit(benchmark::kMicrosecond);
        benchmark::RegisterBenchmark(
            ("BM_KeySwitch/" + tn).c_str(),
            [tier](benchmark::State &s) { runKeySwitch(s, tier, 1); })
            ->Unit(benchmark::kMicrosecond);
        benchmark::RegisterBenchmark(
            ("BM_KeySwitch/" + tn + "/batch16").c_str(),
            [tier](benchmark::State &s) { runKeySwitch(s, tier, kChunk); })
            ->Unit(benchmark::kMicrosecond);
    }
}

void
BM_GateBootstrap(benchmark::State &state)
{
    const auto &keys = keysFor("I");
    Rng rng(6);
    auto a = encryptBit(keys, true, rng);
    const auto b = encryptBit(keys, false, rng);
    for (auto _ : state) {
        a = gateNand(keys, a, b);
        benchmark::DoNotOptimize(a.body());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("NAND, set I");
}
BENCHMARK(BM_GateBootstrap)->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Custom main so that `bench_cpu_primitives --json` emits the machine-
 * readable report BENCH_cpu_primitives.json (in the working directory)
 * alongside the usual console table. All other flags pass through to
 * google-benchmark unchanged.
 */
int
main(int argc, char **argv)
{
    static std::string out_flag =
        "--benchmark_out=BENCH_cpu_primitives.json";
    static std::string fmt_flag = "--benchmark_out_format=json";

    std::vector<char *> args;
    bool json = false;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json = true;
        else
            args.push_back(argv[i]);
    }
    if (json) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }

    registerDispatchTierBenchmarks();

    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    // Stamp the report with the auto-selected tier so JSON consumers
    // know which kernels produced the untiered rows.
    benchmark::AddCustomContext(
        "fft_dispatch",
        morphling::tfhe::fftDispatchTierName(
            morphling::tfhe::activeFftDispatchTier()));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
