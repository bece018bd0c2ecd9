/**
 * @file
 * The circuit executor: schedules a lowered circuit's Program DAG over
 * one ExecutionBackend.
 *
 * Levels run strictly in order (inter-level ciphertext dependencies);
 * within a level, each LoweredStep is one backend run — the backend is
 * free to parallelize inside the batch (FunctionalBackend's
 * group-parallel path, at BatchOptions::threads). Between levels the
 * executor performs the linear plumbing the IR keeps free: input
 * binding, trivial constants, NOT negations, and each gate's
 * tfhe::gateLinear combination. Because that arithmetic is shared with
 * the tfhe gate API and the functional backend reproduces
 * tfhe::bootstrapInto exactly, the executor's outputs are
 * bit-identical to Circuit::evaluateEncrypted.
 *
 * Telemetry: one span per level under the "exec" category, and a
 * retirement log spanning levels (per-step RetiredInstructions with a
 * globally renumbered sequence).
 */

#ifndef MORPHLING_EXEC_CIRCUIT_EXECUTOR_H
#define MORPHLING_EXEC_CIRCUIT_EXECUTOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "compiler/sw_scheduler.h"
#include "exec/backend.h"

namespace morphling::exec {

/** Per-level outcome of one circuit run. */
struct CircuitLevelStats
{
    unsigned level = 0;
    std::size_t steps = 0;          //!< LUT-grouped batches run
    std::uint64_t bootstraps = 0;   //!< blind rotations retired
    std::uint64_t wallNanos = 0;    //!< wall time of the level
};

/** One retired instruction tagged with its position in the circuit:
 *  the cross-level retirement log entry. */
struct CircuitRetirement
{
    unsigned level = 0;
    std::size_t step = 0;   //!< step index within the level
    /** The backend's retirement record; seq renumbered to be globally
     *  monotone across every step and level of the run. */
    RetiredInstruction inst;
};

/** What one circuit execution produced. */
struct CircuitResult
{
    /** Output ciphertexts, one per Circuit::outputs() entry. */
    std::vector<tfhe::LweCiphertext> outputs;

    std::vector<CircuitLevelStats> levels;

    /** Retirement log spanning levels, in global retirement order. */
    std::vector<CircuitRetirement> retired;

    std::uint64_t totalBootstraps = 0;
};

/**
 * Runs lowered circuits over one backend. The backend must be
 * functional (produce ciphertext outputs): kFunctional, kRemote, or
 * anything else whose ExecutionResult::hasOutputs holds. Single-driver,
 * like the backend it wraps.
 */
class CircuitExecutor
{
  public:
    CircuitExecutor(const tfhe::TfheParams &params,
                    ExecutionBackend &backend,
                    tfhe::BatchOptions options = {});

    /** Execute a lowered circuit on `inputs` (one ciphertext per
     *  circuit input, creation order). Throws std::invalid_argument
     *  when the input count differs from the circuit's. */
    CircuitResult run(const circuit::LoweredCircuit &lowered,
                      const std::vector<tfhe::LweCiphertext> &inputs);

    /** Convenience: lower with this executor's scheduler, then run. */
    CircuitResult run(const circuit::Circuit &circuit,
                      const std::vector<tfhe::LweCiphertext> &inputs);

  private:
    const tfhe::TfheParams &params_;
    ExecutionBackend &backend_;
    tfhe::BatchOptions options_;
    compiler::SwScheduler scheduler_;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_CIRCUIT_EXECUTOR_H
