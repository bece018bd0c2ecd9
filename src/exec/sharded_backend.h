/**
 * @file
 * The sharded timing backend: splits a Program's barrier-delimited
 * group streams across N simulated accelerators and merges the
 * per-shard retirement logs back into global program order.
 *
 * The compiled Program's groups are data-independent between barriers
 * (each chunk reads and writes its own slots of the flat input/output
 * arrays; barriers only express stage ordering within a group's own
 * stream), so a superbatch shards across N accelerators by group id
 * with no cross-shard communication. Shard s owns groups
 * {g : g % N == s} and executes its Program::sliceGroups sub-program.
 * Two memory models: private shards are independent TimingBackends,
 * each with its own HBM, run on their own threads; fleet shards share
 * one memory fabric (arch::AcceleratorFleet) and advance in one event
 * queue. The backend is data-free: functional execution of a
 * superbatch is FunctionalBackend's, whose group-parallel run() is the
 * one functional fan-out.
 *
 * Merge determinism (docs/execution_model.md): per-shard logs are
 * recombined segment by segment — within every barrier-delimited
 * segment, groups in ascending global id, each group's instructions in
 * program order, then the segment's barrier retirements, again in
 * group order. This is the order FunctionalBackend::run() produces at
 * every thread count, and it is independent of shard count and of how
 * the shards interleaved their groups — so a 1-shard, 2-shard and
 * 4-shard run of the same Program emit identical retirement logs.
 *
 * Shards have independent virtual clocks in private mode and one
 * shared clock in fleet mode (RetiredInstruction::tick reads the
 * shard's clock); shardStats() reports per-shard cycles, and the merged
 * SimReport carries the max-over-shards makespan (the fleet finishes
 * when its slowest shard does) with summed work counters — the
 * projection of Table VI-style numbers to N accelerators.
 */

#ifndef MORPHLING_EXEC_SHARDED_BACKEND_H
#define MORPHLING_EXEC_SHARDED_BACKEND_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.h"
#include "arch/fleet.h"
#include "exec/backend.h"
#include "exec/timing_backend.h"

namespace morphling::exec {

/** Per-shard outcome of the last run(); see
 *  ShardedBackend::shardStats(). */
struct ShardStats
{
    unsigned shard = 0;
    std::vector<std::uint8_t> groups; //!< global group ids owned
    std::size_t instructions = 0;     //!< slice stream length
    std::uint64_t blindRotations = 0; //!< ciphertexts the shard owns
    bool hasReport = false;           //!< false for an empty slice
    std::uint64_t cycles = 0;         //!< shard-local makespan
};

/**
 * Fans a Program out over N simulated accelerators, runs the shards,
 * and presents the merged execution through the ordinary
 * ExecutionBackend interface: run() returns the deterministically
 * merged retirement log and the fleet SimReport. The Job's ciphertext
 * data is ignored (the cycle model is data-free).
 */
class ShardedBackend final : public ExecutionBackend
{
  public:
    /** N independent simulated accelerators of identical geometry.
     *  `params` must outlive the backend. Throws
     *  std::invalid_argument for 0 shards (so does fleetTiming). */
    static ShardedBackend timing(const arch::ArchConfig &config,
                                 const tfhe::TfheParams &params,
                                 unsigned numShards);

    /**
     * N accelerators on one shared memory fabric (arch::AcceleratorFleet):
     * BSK fetches broadcast across shards, all shards advance in one
     * event queue, and per-shard cycles are finish ticks on the shared
     * clock — the model that breaks the private-HBM BSK-streaming
     * bound. `params` must outlive the backend.
     */
    static ShardedBackend fleetTiming(const arch::ArchConfig &config,
                                      const tfhe::TfheParams &params,
                                      unsigned numShards);

    std::string_view name() const override { return "sharded"; }

    /** Verify (compiler::verify; std::invalid_argument on failure),
     *  slice, run every shard, merge. */
    ExecutionResult run(const compiler::Program &program,
                        const Job &job) override;

    unsigned numShards() const
    {
        return fleetMode_ ? fleetShards_
                          : static_cast<unsigned>(shards_.size());
    }

    /** True when this backend runs shards over the shared fabric. */
    bool fleetMode() const { return fleetMode_; }

    /** Fleet broadcast telemetry of the last run(); only valid in
     *  fleet mode after a run. */
    const arch::FleetReport &fleetReport() const { return fleetReport_; }

    /**
     * Raw per-shard completion logs (slice-local indices, shared-clock
     * ticks) of the last fleet-mode run(); the co-simulator checks
     * dependency order against these since fleet shards have no inner
     * TimingBackend. Empty outside fleet mode.
     */
    const std::vector<std::vector<RetiredInstruction>> &
    shardCompletions() const
    {
        return shardCompletions_;
    }

    /** Per-shard outcome of the last run(); valid until the next
     *  run(). */
    const std::vector<ShardStats> &shardStats() const { return stats_; }

    /** The sub-program shard `s` executed; valid until the next
     *  run(). */
    const compiler::ProgramSlice &slice(unsigned s) const;

    /** The private accelerator of shard `s` (the co-simulator reaches
     *  through this for per-shard completion-order checks); not valid
     *  in fleet mode. */
    const TimingBackend &shardBackend(unsigned s) const;

    /** Max over shards' cycles; 0 when no shard reports. */
    std::uint64_t makespan() const { return makespan_; }

  private:
    ShardedBackend() = default; //!< the factories fill it in

    void runShardsThreaded(std::vector<ExecutionResult> &results);
    void runShardsFleet(std::vector<ExecutionResult> &results);
    std::vector<RetiredInstruction>
    mergeRetirement(const compiler::Program &program,
                    const std::vector<ExecutionResult> &results) const;
    /** Fill merged.report/hasReport and makespan_ from the shards. */
    void mergeReports(const std::vector<ExecutionResult> &results,
                      ExecutionResult &merged);

    /** Private-memory shards; empty in fleet mode. */
    std::vector<std::unique_ptr<TimingBackend>> shards_;

    // Fleet mode (shared-fabric timing): no inner backends; the
    // AcceleratorFleet runs every shard in one event queue.
    bool fleetMode_ = false;
    unsigned fleetShards_ = 0;
    arch::ArchConfig fleetConfig_{};
    arch::FleetReport fleetReport_{};
    std::vector<std::vector<RetiredInstruction>> shardCompletions_;

    const tfhe::TfheParams *params_ = nullptr;

    // State of the last run(), cleared by the next one.
    std::vector<compiler::ProgramSlice> slices_;
    std::vector<ShardStats> stats_;
    std::uint64_t makespan_ = 0;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_SHARDED_BACKEND_H
