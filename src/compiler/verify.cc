#include "verify.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/logging.h"

namespace morphling::compiler {

namespace {

/** The chunk pipeline in stage order (Fig. 6). */
constexpr std::array<Opcode, 8> kPipeline = {
    Opcode::DmaLoadLwe,       Opcode::VpuModSwitch,
    Opcode::DmaLoadBsk,       Opcode::XpuBlindRotate,
    Opcode::VpuSampleExtract, Opcode::DmaLoadKsk,
    Opcode::VpuKeySwitch,     Opcode::DmaStoreLwe};

/** Where one group stands in its stream. */
struct GroupState
{
    std::size_t stage = 0; //!< next pipeline stage; 0 outside a chunk
    std::size_t head = 0;  //!< the open chunk's DMA.LD_LWE
    std::vector<std::size_t> barriers; //!< its CTRL.BARs, in order
};

std::string
describe(const Program &program, std::size_t i)
{
    return detail::concat("instruction ", i, " (",
                          program.at(i).toString(), ")");
}

} // namespace

std::optional<ProgramPlan>
verify(const Program &program, const tfhe::TfheParams &params,
       std::string *error)
{
    const auto fail =
        [&](const std::string &message) -> std::optional<ProgramPlan> {
        if (error != nullptr)
            *error = "program '" + program.name() + "': " + message;
        return std::nullopt;
    };

    ProgramPlan plan;
    const auto &instrs = program.instructions();
    plan.chunkOf.assign(instrs.size(), -1);
    std::vector<GroupState> groups(program.numGroups());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction &inst = instrs[i];
        GroupState &gs = groups[inst.group];
        if (gs.stage == 0) {
            switch (inst.op) {
              case Opcode::DmaLoadLwe:
                if (inst.count == 0)
                    return fail(describe(program, i) +
                                ": a chunk covers at least one slot");
                gs.head = i;
                gs.stage = 1;
                plan.chunkOf[i] = static_cast<int>(plan.chunks.size());
                plan.chunks.push_back({plan.slots, inst.count});
                plan.slots += inst.count;
                continue;
              case Opcode::Barrier:
                gs.barriers.push_back(i);
                continue;
              case Opcode::DmaLoadData:
              case Opcode::VpuPAlu:
                continue;
              default:
                return fail(describe(program, i) + ": outside a chunk");
            }
        }
        const Instruction &head = instrs[gs.head];
        if (inst.op != kPipeline[gs.stage]) {
            return fail(detail::concat(
                describe(program, i), ": expected ",
                opcodeName(kPipeline[gs.stage]), " in the chunk opened at ",
                describe(program, gs.head)));
        }
        if (inst.count != head.count) {
            return fail(detail::concat(describe(program, i),
                                       ": count differs from the chunk "
                                       "opened at ",
                                       describe(program, gs.head)));
        }
        if (inst.op == Opcode::XpuBlindRotate &&
            inst.operand != params.lweDimension) {
            return fail(detail::concat(describe(program, i), ": runs ",
                                       inst.operand, " rounds, n = ",
                                       params.lweDimension));
        }
        plan.chunkOf[i] = plan.chunkOf[gs.head];
        gs.stage = (gs.stage + 1) % kPipeline.size();
    }

    for (unsigned g = 0; g < groups.size(); ++g) {
        if (groups[g].stage != 0) {
            return fail(detail::concat("group ", g,
                                       " ends inside the chunk opened at ",
                                       describe(program, groups[g].head)));
        }
    }

    // Rendezvous: every group meets group 0's barrier ids in its order.
    for (unsigned g = 1; g < groups.size(); ++g) {
        const auto &ref = groups[0].barriers;
        const auto &own = groups[g].barriers;
        const std::size_t meets = std::max(ref.size(), own.size());
        for (std::size_t k = 0; k < meets; ++k) {
            if (k == own.size()) {
                return fail(detail::concat("group ", g,
                                           " has no barrier to meet ",
                                           describe(program, ref[k])));
            }
            if (k == ref.size()) {
                return fail(describe(program, own[k]) +
                            ": group 0 has no barrier to meet it");
            }
            if (instrs[own[k]].operand != instrs[ref[k]].operand) {
                return fail(detail::concat(
                    describe(program, own[k]), ": barrier id ",
                    instrs[own[k]].operand, " where group 0 meets id ",
                    instrs[ref[k]].operand, " (instruction ", ref[k],
                    ")"));
            }
        }
    }
    return plan;
}

ProgramPlan
verifyOrThrow(const Program &program, const tfhe::TfheParams &params)
{
    std::string error;
    auto plan = verify(program, params, &error);
    if (!plan)
        throw std::invalid_argument(error);
    return std::move(*plan);
}

} // namespace morphling::compiler
