#include "circuit_executor.h"

#include <chrono>
#include <stdexcept>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace morphling::exec {

using circuit::Op;

CircuitExecutor::CircuitExecutor(const tfhe::TfheParams &params,
                                 ExecutionBackend &backend,
                                 tfhe::BatchOptions options)
    : params_(params), backend_(backend), options_(options),
      scheduler_(params)
{
}

CircuitResult
CircuitExecutor::run(const circuit::LoweredCircuit &lowered,
                     const std::vector<tfhe::LweCiphertext> &inputs)
{
    MORPHLING_SPAN("exec", "circuit.run");
    panic_if(lowered.circuit == nullptr, "lowered circuit has no source");
    const auto &c = *lowered.circuit;
    if (inputs.size() != c.numInputs()) {
        throw std::invalid_argument(morphling::detail::concat(
            "CircuitExecutor: circuit has ", c.numInputs(),
            " inputs, got ", inputs.size()));
    }

    CircuitResult result;
    result.totalBootstraps = lowered.totalBootstraps;
    std::vector<tfhe::LweCiphertext> values(c.numNodes());
    std::vector<char> ready(c.numNodes(), 0);

    // Linear sweep: bind inputs/constants and resolve NOT chains whose
    // operands are ready. Nodes are in dependency order, so one
    // ascending pass settles everything computable without a
    // bootstrap; called once up front and again after each level.
    std::size_t next_input = 0;
    auto sweep_linear = [&]() {
        for (unsigned i = 0; i < c.numNodes(); ++i) {
            if (ready[i])
                continue;
            const auto &n = c.node(i);
            switch (n.op) {
              case Op::BitInput:
              case Op::WordInput:
                values[i] = inputs[next_input++];
                ready[i] = 1;
                break;
              case Op::Const: {
                const tfhe::Torus32 mu = n.constValue
                                             ? tfhe::boolMu()
                                             : (0 - tfhe::boolMu());
                values[i] = tfhe::LweCiphertext::trivial(
                    params_.lweDimension, mu);
                ready[i] = 1;
                break;
              }
              case Op::Not:
                if (ready[n.a]) {
                    values[i] = tfhe::gateNot(values[n.a]);
                    ready[i] = 1;
                }
                break;
              default:
                break; // bootstrapped; settled by its level's steps
            }
        }
    };
    sweep_linear();

    std::uint64_t seq = 0;
    for (unsigned l = 0; l < lowered.numLevels(); ++l) {
        MORPHLING_SPAN("exec", "circuit.level");
        const auto t0 = std::chrono::steady_clock::now();
        CircuitLevelStats stats;
        stats.level = l + 1;
        stats.steps = lowered.levels[l].size();

        for (std::size_t s = 0; s < lowered.levels[l].size(); ++s) {
            const auto &step = lowered.levels[l][s];
            // Materialize the slot inputs: each gate's pre-bootstrap
            // linear combination, each Lut node's word operand.
            std::vector<tfhe::LweCiphertext> slot_inputs;
            slot_inputs.reserve(step.nodes.size());
            for (circuit::Wire w : step.nodes) {
                const auto &n = c.node(w);
                panic_if(!ready[n.a] || (n.b >= 0 && !ready[n.b]),
                         "node ", w, " scheduled before its inputs");
                if (n.op == Op::Lut) {
                    slot_inputs.push_back(values[n.a]);
                } else {
                    slot_inputs.push_back(tfhe::gateLinear(
                        circuit::toBoolGate(n.op), values[n.a],
                        values[n.b]));
                }
            }

            const Job job =
                step.signLut
                    ? Job::sign(slot_inputs, step.lutEntries, options_)
                    : Job::batch(slot_inputs, step.lutEntries,
                                 options_);
            auto exec = backend_.run(step.program, job);
            panic_if(!exec.hasOutputs, backend_.name(),
                     " produced no ciphertexts; circuits need a "
                     "functional backend");
            panic_if(exec.outputs.size() != step.nodes.size(),
                     "step produced ", exec.outputs.size(),
                     " outputs for ", step.nodes.size(), " slots");
            for (std::size_t k = 0; k < step.nodes.size(); ++k) {
                values[step.nodes[k]] = std::move(exec.outputs[k]);
                ready[step.nodes[k]] = 1;
            }
            stats.bootstraps += step.nodes.size();

            result.retired.reserve(result.retired.size() +
                                   exec.retired.size());
            for (auto &r : exec.retired) {
                CircuitRetirement entry;
                entry.level = l + 1;
                entry.step = s;
                entry.inst = r;
                entry.inst.seq = seq++;
                result.retired.push_back(entry);
            }
        }

        sweep_linear();
        stats.wallNanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        result.levels.push_back(stats);
    }
    sweep_linear(); // inputs-only circuits (no levels) bind here too

    result.outputs.reserve(c.outputs().size());
    for (circuit::Wire w : c.outputs()) {
        panic_if(!ready[w], "output wire ", w, " never computed");
        result.outputs.push_back(values[w]);
    }
    return result;
}

CircuitResult
CircuitExecutor::run(const circuit::Circuit &circuit,
                     const std::vector<tfhe::LweCiphertext> &inputs)
{
    const auto lowered = circuit::lower(circuit, scheduler_);
    return run(lowered, inputs);
}

} // namespace morphling::exec
