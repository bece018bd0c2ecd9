/**
 * @file
 * Lowering circuits to compiled Programs.
 *
 * Each topological level of a circuit is a set of mutually independent
 * bootstraps; lowering groups them by LUT (all gate nodes share the
 * one sign LUT; Lut nodes group per registered table) and compiles
 * each group into one compiler::Program batch via
 * SwScheduler::scheduleBootstrapBatch. The result is a Program DAG
 * with explicit inter-level ciphertext dependencies: level L's slot
 * inputs are linear combinations (tfhe::gateLinear / plain wire reads)
 * of level < L outputs, which exec::CircuitExecutor materializes and
 * feeds to any functional ExecutionBackend.
 */

#ifndef MORPHLING_CIRCUIT_LOWERING_H
#define MORPHLING_CIRCUIT_LOWERING_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/program.h"
#include "compiler/sw_scheduler.h"

namespace morphling::circuit {

/** One compiled batch: every bootstrapped node of one level that
 *  shares one LUT, in ascending node order (slot k of the program is
 *  nodes[k]). */
struct LoweredStep
{
    unsigned level = 0;

    /** Gate bootstraps (exec::Job::sign) vs programmable bootstraps
     *  (exec::Job::batch). */
    bool signLut = false;

    /** The registered table of a LUT step; -1 for the sign step. */
    LutId lut = -1;

    /** Node of each blind-rotation slot, ascending. */
    std::vector<Wire> nodes;

    /** The Job::lut storage: {boolMu} for the sign step, the table's
     *  torus entries otherwise. Owned here so Jobs stay non-owning. */
    std::vector<tfhe::Torus32> lutEntries;

    /** scheduleBootstrapBatch(nodes.size()). */
    compiler::Program program;
};

/** The compiled Program DAG of one circuit. The source circuit must
 *  outlive it (the executor walks nodes for linear combinations). */
struct LoweredCircuit
{
    const Circuit *circuit = nullptr;

    /** steps[l] holds level l+1's batches (level 0 has no
     *  bootstraps). Steps within a level are independent; levels are
     *  strictly ordered. */
    std::vector<std::vector<LoweredStep>> levels;

    std::uint64_t totalBootstraps = 0;

    unsigned numLevels() const
    {
        return static_cast<unsigned>(levels.size());
    }
};

/** Lower a circuit against a scheduler's batching geometry. */
LoweredCircuit lower(const Circuit &circuit,
                     const compiler::SwScheduler &scheduler);

} // namespace morphling::circuit

#endif // MORPHLING_CIRCUIT_LOWERING_H
