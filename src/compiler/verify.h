/**
 * @file
 * The Program verifier: the one definition of a runnable Program.
 *
 * The SW scheduler is the only producer of Programs, and every backend
 * executes only what it emits (Sec. V-E, Fig. 6): each group sends an
 * in-order stream of chunks, each chunk runs the pipeline
 * DMA.LD_LWE -> VPU.MS -> DMA.LD_BSK -> XPU.BR -> VPU.SE -> DMA.LD_KSK
 * -> VPU.KS -> DMA.ST_LWE, and stage barriers separate the stages.
 * verify() checks that grammar once, for every caller: the functional,
 * timing and sharded backends at run() entry, the RemoteServer before
 * its idempotency gate, and the ProgramDiskCache on every load
 * (docs/execution_model.md, "Program verifier").
 *
 * The grammar, per scheduling group:
 *  - outside a chunk a group may issue DMA.LD_LWE, DMA.LD_DATA,
 *    VPU.PALU or CTRL.BAR; DMA.LD_LWE opens a chunk and needs a count
 *    of at least 1;
 *  - inside a chunk the group's next instruction is the next pipeline
 *    stage, with the chunk head's count, and XPU.BR's operand is the
 *    LWE dimension n (the rounds the cycle model simulates);
 *  - no group ends inside a chunk;
 *  - every group id below Program::numGroups() meets the same barrier
 *    ids in the same order (a group without instructions meets none).
 * Chunks cover input slots in program order of their DMA.LD_LWE (a
 * flat cursor), so slot coverage follows from the rules above. An
 * empty Program verifies and has no slots.
 */

#ifndef MORPHLING_COMPILER_VERIFY_H
#define MORPHLING_COMPILER_VERIFY_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compiler/program.h"
#include "tfhe/params.h"

namespace morphling::compiler {

/** One chunk of a verified Program: the input (and output) slots its
 *  pipeline covers. */
struct PlannedChunk
{
    std::size_t slotBegin = 0; //!< first slot covered
    unsigned count = 0;        //!< slots covered (>= 1)
};

/** What verify() derives from a runnable Program. */
struct ProgramPlan
{
    /** Chunks in program order of their DMA.LD_LWE. */
    std::vector<PlannedChunk> chunks;

    /** Per instruction: its index into `chunks`, or -1 for the
     *  instructions outside every chunk (DMA.LD_DATA, VPU.PALU,
     *  CTRL.BAR). */
    std::vector<int> chunkOf;

    /** Total slots: the sum of the chunk counts, which equals
     *  Program::totalBlindRotations(). */
    std::uint64_t slots = 0;
};

/**
 * Check `program` against the grammar above. Total: it never panics,
 * whatever Program it is given. Returns the chunk plan, or nullopt
 * with a diagnostic in *error (when given) that names the index of the
 * first offending instruction.
 */
std::optional<ProgramPlan> verify(const Program &program,
                                  const tfhe::TfheParams &params,
                                  std::string *error = nullptr);

/** verify() at a backend's run() entry: the plan, or
 *  std::invalid_argument carrying the diagnostic. */
ProgramPlan verifyOrThrow(const Program &program,
                          const tfhe::TfheParams &params);

} // namespace morphling::compiler

#endif // MORPHLING_COMPILER_VERIFY_H
