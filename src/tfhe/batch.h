/**
 * @file
 * Batched bootstrapping on the host CPU.
 *
 * Bootstraps within a batch are independent — the property Morphling's
 * scheduler exploits with 64-ciphertext superbatches, and the property
 * that lets a multicore CPU parallelize them. This module provides the
 * unified batch entry point (one function, execution shaped by
 * BatchOptions), an EvaluationKeys overload for the server side of a
 * deployment split, and a measured parallel-efficiency probe that
 * grounds the CPU cost model's efficiency constant in reality instead
 * of a guess.
 *
 * Thread safety: key material is read-only during bootstrapping, and
 * each worker thread has its own FFT engine with its lane scratch
 * (NegacyclicFft::forDegree) and its own workspace
 * (BootstrapWorkspace::forThisThread), so the parallel path needs no
 * locking.
 */

#ifndef MORPHLING_TFHE_BATCH_H
#define MORPHLING_TFHE_BATCH_H

#include <cstdint>
#include <vector>

#include "tfhe/bootstrap.h"
#include "tfhe/serialize.h"

namespace morphling::tfhe {

/**
 * Execution knobs of the unified batch-bootstrap entry point.
 *
 * The default is the conservative sequential path; set threads to 0 to
 * use every hardware thread.
 */
struct BatchOptions
{
    /** Worker threads: 1 = sequential, 0 = hardware concurrency. */
    unsigned threads = 1;

    /**
     * Audit the LUT against the analytic noise model before running:
     * warn() when the predicted input-side noise margin for a LUT over
     * lut.size() messages falls below minSlotSigmas (a decode failure
     * is then no longer negligible). Costs a handful of flops once per
     * batch, nothing per ciphertext.
     */
    bool checkNoise = false;

    /** Margin threshold for checkNoise; > 6 is practically
     *  error-free. */
    double minSlotSigmas = 4.0;
};

/**
 * Audit a LUT against the analytic noise model per
 * BatchOptions::checkNoise (warn() when the slot margin is thin).
 * No-op when opts.checkNoise is false or the LUT is empty. Shared by
 * the batch path and the exec::FunctionalBackend so both entry points
 * apply the same audit.
 */
void auditBatchLut(const TfheParams &params,
                   const std::vector<Torus32> &lut,
                   const BatchOptions &opts);

/**
 * Programmable-bootstrap every ciphertext with the same LUT. Results
 * are in input order and independent of opts.threads.
 */
std::vector<LweCiphertext>
batchBootstrap(const KeySet &keys,
               const std::vector<LweCiphertext> &inputs,
               const std::vector<Torus32> &lut,
               const BatchOptions &opts = {});

/**
 * Server-side batch bootstrap: same semantics, using only evaluation
 * keys (no secret material). This is the hot path the
 * service::BootstrapService worker pool runs.
 */
std::vector<LweCiphertext>
batchBootstrap(const EvaluationKeys &keys,
               const std::vector<LweCiphertext> &inputs,
               const std::vector<Torus32> &lut,
               const BatchOptions &opts = {});

/**
 * Sign-bootstrap every ciphertext back to +-mu — the batched form of
 * signBootstrap and the primitive behind boolean gate circuits. Uses
 * the constant test polynomial (NOT a staircase LUT: gates need the
 * whole negacyclic ring mapped to one magnitude, which no
 * buildTestPolynomial vector can express). Same batching/threading
 * semantics as batchBootstrap; also the reference the co-simulator
 * checks sign-LUT jobs (exec::Job::sign) against.
 */
std::vector<LweCiphertext>
batchSignBootstrap(const EvaluationKeys &keys,
                   const std::vector<LweCiphertext> &inputs, Torus32 mu,
                   const BatchOptions &opts = {});

/** Outcome of the parallel-efficiency probe. */
struct ParallelEfficiency
{
    unsigned threads = 0;
    double sequentialSeconds = 0;
    double parallelSeconds = 0;

    /** speedup / threads, in (0, 1]. */
    double
    efficiency() const
    {
        if (parallelSeconds <= 0 || threads == 0)
            return 0;
        return sequentialSeconds / parallelSeconds / threads;
    }
};

/**
 * Measure multicore scaling of this library's bootstrap on the current
 * host: run `count` bootstraps sequentially and with `threads`
 * workers.
 */
ParallelEfficiency measureParallelEfficiency(const KeySet &keys,
                                             unsigned count,
                                             unsigned threads);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_BATCH_H
