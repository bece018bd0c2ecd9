/**
 * @file
 * The SW scheduler (Figure 6): application-level batching, tiling and
 * instruction-stream generation.
 *
 * Bootstrapping tasks are grouped into superbatches of
 * numGroups * groupSize LWE ciphertexts (4 groups of 16 by default =
 * the paper's 64). Each group receives one in-order dependent stream
 * VPU(MS) -> XPU(BR) -> VPU(SE) -> VPU(KS) per chunk, with the DMA
 * instructions that stage the data. Groups run concurrently; barriers
 * separate dependent application stages (e.g. NN layers). KSK traffic
 * is amortized over the kskReuse ciphertexts that share one fetch
 * (Section IV-C).
 */

#ifndef MORPHLING_COMPILER_SW_SCHEDULER_H
#define MORPHLING_COMPILER_SW_SCHEDULER_H

#include "compiler/program.h"
#include "tfhe/params.h"

namespace morphling::compiler {

/** @{
 * The paper's canonical batching geometry (Figure 6): superbatches of
 * kNumGroups concurrent groups of kGroupSize LWEs each. Shared by the
 * SW scheduler and the request-batching service layer
 * (service/bootstrap_service.h), so the software queue assembles
 * exactly the unit the hardware schedule is built around.
 */
inline constexpr unsigned kGroupSize = 16;  //!< 4 rows x 4 XPUs
inline constexpr unsigned kNumGroups = 4;   //!< concurrent groups
inline constexpr unsigned kSuperbatchSize = kGroupSize * kNumGroups;
/** @} */

/**
 * How bootstrap chunks are laid over the groups.
 *
 * - kRoundRobin:        chunks of groupSize walk the groups in order;
 *                       uneven totals leave trailing groups with fewer
 *                       chunks (the historical default).
 * - kGroupInterleaved:  emission proceeds in rounds that split the
 *                       round's ciphertexts evenly (±1) across ALL
 *                       groups, so every group carries the same
 *                       chunk-sequence length. Shards sliced from such
 *                       a program stay phase-aligned on the same
 *                       blind-rotation iteration, which is what lets
 *                       fleet-mode BSK broadcasts coalesce.
 */
enum class InterleaveMode
{
    kRoundRobin,
    kGroupInterleaved,
};

/** Batching/tiling knobs of the SW scheduler. */
struct SchedulerConfig
{
    unsigned groupSize = kGroupSize; //!< LWEs per group
    unsigned numGroups = kNumGroups; //!< groups per superbatch
    unsigned kskReuse = kSuperbatchSize; //!< cts amortizing one KSK fetch
    InterleaveMode interleave = InterleaveMode::kRoundRobin;
};

/** Compiles workloads into Morphling instruction streams. */
class SwScheduler
{
  public:
    /** Throws std::invalid_argument for a zero group size or count,
     *  more than 16 groups (the group id's encoding) or kskReuse 0. */
    explicit SwScheduler(const tfhe::TfheParams &params,
                         SchedulerConfig config = {});

    const SchedulerConfig &config() const { return config_; }
    const tfhe::TfheParams &params() const { return params_; }

    /** Compile a multi-stage workload. */
    Program schedule(const Workload &workload) const;

    /** Convenience: a single stage of `count` independent bootstraps
     *  (the Table V measurement program). */
    Program scheduleBootstrapBatch(std::uint64_t count) const;

    /** Bytes of BSK streamed per blind-rotation iteration
     *  (the operand of DMA.LD_BSK). */
    std::uint64_t bskBytesPerIteration() const;

    /** Amortized KSK bytes fetched for `count` ciphertexts. */
    std::uint64_t kskBytesFor(std::uint64_t count) const;

  private:
    void emitBootstrapChunk(Program &prog, std::uint8_t group,
                            std::uint16_t count) const;

    const tfhe::TfheParams &params_;
    SchedulerConfig config_;
};

} // namespace morphling::compiler

#endif // MORPHLING_COMPILER_SW_SCHEDULER_H
