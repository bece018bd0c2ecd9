/**
 * @file
 * Co-simulation: run a functional and a timing backend over the same
 * compiled Program and cross-check their two complete results.
 *
 * Checks performed (docs/execution_model.md):
 *  - per-group order: both backends retire the identical instruction
 *    sequence within every scheduling group (the Fig. 6 reorder-buffer
 *    view: groups may interleave differently, each group may not);
 *  - coverage: each backend retires every program instruction exactly
 *    once;
 *  - program order: each backend's per-group retirement sequence equals
 *    the group's stream in the Program;
 *  - dependency order (timing backends): raw completion ticks are
 *    monotone within every chunk chain, and no instruction after a
 *    barrier completes before the barrier releases;
 *  - sharded timing references (a ShardedBackend): the shard slices
 *    partition the program — every group owned by exactly one shard,
 *    slices jointly covering each instruction once — and every shard's
 *    shard-local completion log passes the dependency-order checks
 *    above against its slice;
 *  - end-of-program correctness (opt-in via referenceKeys): functional
 *    outputs are bit-identical to the tfhe::batchBootstrap reference.
 *
 * Mismatches are collected as readable diagnostics in CosimReport, not
 * panics — the co-simulator is the test oracle, so it must survive a
 * broken backend to describe it. CosimBackend wraps the pair as an
 * ordinary ExecutionBackend (BackendKind::kCosim) that throws
 * CosimError on divergence.
 */

#ifndef MORPHLING_EXEC_COSIM_H
#define MORPHLING_EXEC_COSIM_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "tfhe/serialize.h"

namespace morphling::exec {

/** Knobs of one co-simulation run. */
struct CosimOptions
{
    /** When set, functional outputs are additionally checked
     *  bit-exact against the tfhe::batchBootstrap reference. */
    const tfhe::EvaluationKeys *referenceKeys = nullptr;

    /** Stop collecting diagnostics after this many. */
    std::size_t maxErrors = 16;
};

/** Outcome of one co-simulation run. */
struct CosimReport
{
    std::vector<std::string> errors;
    std::uint64_t instructions = 0;        //!< program size
    std::uint64_t lockstepComparisons = 0; //!< per-group matched pairs
    ExecutionResult functional;
    ExecutionResult timing;

    bool ok() const { return errors.empty(); }

    /** One-line human-readable verdict. */
    std::string summary() const;
};

/**
 * Runs two backends over one program and cross-checks the results.
 * The first backend must produce outputs (hasOutputs), the second a
 * report (hasReport) — conventionally FunctionalBackend and
 * TimingBackend, but any ExecutionBackend pair satisfying the
 * retirement contract can be cross-checked (tests use stub backends to
 * prove mismatches are caught).
 */
class LockstepCosim
{
  public:
    LockstepCosim(ExecutionBackend &functional,
                  ExecutionBackend &timing, CosimOptions options = {});

    /** Run `program` on both backends and check the two results. */
    CosimReport run(const compiler::Program &program, const Job &job);

  private:
    ExecutionBackend &functional_;
    ExecutionBackend &timing_;
    CosimOptions options_;
};

/** A co-simulation that found a divergence; carries the full report. */
class CosimError : public std::runtime_error
{
  public:
    explicit CosimError(CosimReport report);

    const CosimReport &report() const { return *report_; }

  private:
    std::shared_ptr<const CosimReport> report_; //!< nothrow copies
};

/**
 * A co-simulated backend (BackendKind::kCosim): run() runs both owned
 * backends through a LockstepCosim and returns the functional outputs
 * and log together with the timing report, or throws CosimError when
 * any check fails.
 */
class CosimBackend final : public ExecutionBackend
{
  public:
    CosimBackend(std::unique_ptr<ExecutionBackend> functional,
                 std::unique_ptr<ExecutionBackend> timing,
                 CosimOptions options = {});

    std::string_view name() const override { return "cosim"; }

    ExecutionResult run(const compiler::Program &program,
                        const Job &job) override;

  private:
    std::unique_ptr<ExecutionBackend> functional_;
    std::unique_ptr<ExecutionBackend> timing_;
    CosimOptions options_;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_COSIM_H
