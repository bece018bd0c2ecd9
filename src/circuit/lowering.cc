#include "lowering.h"

#include <map>

#include "common/logging.h"

namespace morphling::circuit {

LoweredCircuit
lower(const Circuit &circuit, const compiler::SwScheduler &scheduler)
{
    LoweredCircuit lowered;
    lowered.circuit = &circuit;
    lowered.levels.resize(circuit.bootstrapDepth());

    const auto levels = circuit.levels();
    // Per level, nodes grouped by LUT key: -1 = the shared sign LUT of
    // every gate node, otherwise the Lut node's table id. std::map
    // keeps step order deterministic (sign step first, then tables in
    // id order).
    std::vector<std::map<LutId, std::vector<Wire>>> groups(
        lowered.levels.size());
    for (Wire w = 0; w < static_cast<Wire>(circuit.numNodes()); ++w) {
        const auto &n = circuit.node(w);
        if (costOf(n.op) == 0)
            continue;
        const LutId key = n.op == Op::Lut ? n.lut : -1;
        groups[levels[w] - 1][key].push_back(w);
    }

    for (std::size_t l = 0; l < groups.size(); ++l) {
        panic_if(groups[l].empty(), "level ", l + 1,
                 " has no bootstraps (levelization bug)");
        for (auto &[key, nodes] : groups[l]) {
            LoweredStep step;
            step.level = static_cast<unsigned>(l + 1);
            step.signLut = key < 0;
            step.lut = key;
            step.nodes = std::move(nodes);
            step.lutEntries =
                key < 0 ? std::vector<tfhe::Torus32>{tfhe::boolMu()}
                        : circuit.lutTable(key).torus;
            step.program =
                scheduler.scheduleBootstrapBatch(step.nodes.size());
            lowered.totalBootstraps += step.nodes.size();
            lowered.levels[l].push_back(std::move(step));
        }
    }

    panic_if(lowered.totalBootstraps != circuit.bootstrapCount(),
             "lowering covered ", lowered.totalBootstraps, " of ",
             circuit.bootstrapCount(), " bootstraps");
    return lowered;
}

} // namespace morphling::circuit
