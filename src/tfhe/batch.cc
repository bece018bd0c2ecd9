#include "batch.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "tfhe/encoding.h"
#include "tfhe/noise.h"

namespace morphling::tfhe {

namespace {

std::vector<LweCiphertext>
runBatch(const BootstrapKey &bsk, const KeySwitchKey &ksk,
         const TorusPolynomial &test_poly,
         const std::vector<LweCiphertext> &inputs,
         const BatchOptions &opts)
{
    unsigned threads = opts.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(
        threads, std::max<std::size_t>(1, inputs.size()));

    // Workers claim a tile of inputs at a time and blind-rotate it as
    // one batch (a smaller tile when that is what keeps every worker
    // busy). Outputs do not depend on the claim order.
    const std::size_t tile = std::min<std::size_t>(
        blindRotateTile(), (inputs.size() + threads - 1) / threads);
    std::vector<LweCiphertext> out(inputs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        auto &ws = BootstrapWorkspace::forThisThread();
        std::vector<std::vector<std::uint32_t>> switched(tile);
        std::vector<GlweCiphertext> accs(tile);
        std::vector<LweCiphertext> extracted(tile);
        for (;;) {
            const std::size_t begin =
                next.fetch_add(tile, std::memory_order_relaxed);
            if (begin >= inputs.size())
                return;
            const auto count = static_cast<unsigned>(
                std::min(tile, inputs.size() - begin));
            for (unsigned t = 0; t < count; ++t)
                modSwitchInto(inputs[begin + t], test_poly.degree(),
                              switched[t]);
            blindRotateBatch(bsk, test_poly, switched.data(), accs.data(),
                             count, ws);
            for (unsigned t = 0; t < count; ++t)
                accs[t].sampleExtractAtInto(0, extracted[t]);
            ksk.applyBatch(extracted.data(), out.data() + begin, count);
        }
    };

    if (threads == 1) {
        worker();
        return out;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return out;
}

} // namespace

void
auditBatchLut(const TfheParams &params, const std::vector<Torus32> &lut,
              const BatchOptions &opts)
{
    if (!opts.checkNoise || lut.empty())
        return;
    const NoiseModel model(params);
    // The input-side error that must stay inside half a LUT slot is the
    // fresh ciphertext noise plus the mod-switch rounding; a refreshed
    // input is the common case, so audit the refreshed level.
    const double input_variance =
        model.bootstrapOutputVariance() + model.modSwitchVariance();
    const double sigmas = model.slotSigmas(
        static_cast<std::uint32_t>(lut.size()), input_variance);
    if (sigmas < opts.minSlotSigmas) {
        warn("batch LUT over ", lut.size(), " messages has only ",
             sigmas, " sigmas of noise margin (want >= ",
             opts.minSlotSigmas, "); expect decode failures");
    }
}

std::vector<LweCiphertext>
batchBootstrap(const KeySet &keys,
               const std::vector<LweCiphertext> &inputs,
               const std::vector<Torus32> &lut, const BatchOptions &opts)
{
    auditBatchLut(keys.params, lut, opts);
    return runBatch(keys.bsk, keys.ksk,
                    buildTestPolynomial(keys.params.polyDegree, lut),
                    inputs, opts);
}

std::vector<LweCiphertext>
batchBootstrap(const EvaluationKeys &keys,
               const std::vector<LweCiphertext> &inputs,
               const std::vector<Torus32> &lut, const BatchOptions &opts)
{
    auditBatchLut(keys.params, lut, opts);
    return runBatch(keys.bsk, keys.ksk,
                    buildTestPolynomial(keys.params.polyDegree, lut),
                    inputs, opts);
}

std::vector<LweCiphertext>
batchSignBootstrap(const EvaluationKeys &keys,
                   const std::vector<LweCiphertext> &inputs, Torus32 mu,
                   const BatchOptions &opts)
{
    return runBatch(keys.bsk, keys.ksk,
                    constantTestPolynomial(keys.params.polyDegree, mu),
                    inputs, opts);
}

ParallelEfficiency
measureParallelEfficiency(const KeySet &keys, unsigned count,
                          unsigned threads)
{
    fatal_if(count == 0 || threads == 0,
             "efficiency probe needs work and workers");
    Rng rng(0xEFF1C1);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    std::vector<LweCiphertext> inputs;
    inputs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        inputs.push_back(encryptPadded(
            keys, static_cast<std::uint32_t>(i % 4), 4, rng));
    }

    ParallelEfficiency result;
    result.threads = threads;

    BatchOptions parallel;
    parallel.threads = threads;

    auto t0 = std::chrono::steady_clock::now();
    auto seq = batchBootstrap(keys, inputs, lut);
    auto t1 = std::chrono::steady_clock::now();
    auto par = batchBootstrap(keys, inputs, lut, parallel);
    auto t2 = std::chrono::steady_clock::now();

    panic_if(seq.size() != par.size(), "batch size mismatch");
    result.sequentialSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.parallelSeconds =
        std::chrono::duration<double>(t2 - t1).count();
    return result;
}

} // namespace morphling::tfhe
