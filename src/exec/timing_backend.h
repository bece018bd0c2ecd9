/**
 * @file
 * The timing execution backend: wraps the arch::Accelerator cycle
 * model behind the ExecutionBackend interface, semantics unchanged.
 *
 * run() runs the event-driven simulation and records the raw
 * per-instruction completion events via the scheduler's retire hook.
 * Completion order within a group is NOT program order — the HW
 * scheduler keeps up to three chunk chains of a group in flight, so
 * chunk t+1's head may complete while chunk t drains its tail. The
 * result's log is therefore the *architectural* retirement: per group,
 * program order, each instruction retiring at the running maximum of
 * its group's completion ticks (a reorder-buffer view), groups
 * interleaved by retire tick. The raw completion log stays available
 * through completionOrder() for dependency-order verification. An
 * empty program retires nothing and has no report; a program that does
 * not verify (compiler::verify) throws std::invalid_argument before
 * anything is simulated.
 */

#ifndef MORPHLING_EXEC_TIMING_BACKEND_H
#define MORPHLING_EXEC_TIMING_BACKEND_H

#include <vector>

#include "arch/accelerator.h"
#include "arch/config.h"
#include "exec/backend.h"

namespace morphling::exec {

/**
 * Coverage-check a raw completion log (every instruction exactly
 * once) and replay it as the architectural retirement: per group in
 * program order, each instruction retiring at the running max of its
 * group's completion ticks (a reorder-buffer view over the HW
 * scheduler's overlapping chains), globally stable-sorted by retire
 * tick. Shared by TimingBackend and the fleet-timing sharded mode.
 */
std::vector<RetiredInstruction>
architecturalRetirement(const compiler::Program &program,
                        const std::vector<RetiredInstruction> &completions);

/** Runs the cycle model through the backend API. */
class TimingBackend final : public ExecutionBackend
{
  public:
    TimingBackend(arch::ArchConfig config,
                  const tfhe::TfheParams &params);

    std::string_view name() const override { return "timing"; }

    /** Runs the full simulation; the Job's ciphertext data is ignored
     *  (the cycle model is data-free). */
    ExecutionResult run(const compiler::Program &program,
                        const Job &job) override;

    /** Raw completion events of the last run in simulator order:
     *  tick = the event queue time each instruction's resource
     *  finished. */
    const std::vector<RetiredInstruction> &completionOrder() const
    {
        return completions_;
    }

    /** The cycle-model report of the last run. */
    const arch::SimReport &report() const { return report_; }

  private:
    arch::Accelerator accel_;
    std::vector<RetiredInstruction> completions_;
    arch::SimReport report_;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_TIMING_BACKEND_H
