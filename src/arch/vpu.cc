#include "vpu.h"

#include "common/logging.h"
#include "telemetry/sim_bridge.h"

namespace morphling::arch {

VpuModel::VpuModel(sim::EventQueue &eq, const ArchConfig &config,
                   const tfhe::TfheParams &params)
    : eq_(eq), config_(config), params_(params),
      taskCycles_(vpuTaskCycles(params, config)),
      groupBusyUntil_(config.vpuLaneGroups, 0)
{
}

std::uint64_t
VpuModel::cyclesFor(compiler::Opcode op, unsigned count,
                    std::uint64_t operand) const
{
    using compiler::Opcode;
    switch (op) {
      case Opcode::VpuModSwitch:
        return taskCycles_.modSwitch * count;
      case Opcode::VpuSampleExtract:
        return taskCycles_.sampleExtract * count;
      case Opcode::VpuKeySwitch:
        return taskCycles_.keySwitch * count;
      case Opcode::VpuPAlu:
        return vpuPAluCycles(params_, config_, operand);
      default:
        panic("not a VPU opcode: ", compiler::opcodeName(op));
    }
}

sim::Tick
VpuModel::submit(unsigned lane_group, compiler::Opcode op, unsigned count,
                 std::uint64_t operand, sim::EventQueue::Callback on_done)
{
    panic_if(lane_group >= groupBusyUntil_.size(),
             "lane group out of range");
    // One lane-group has 1/groups of the lanes: scale the full-width
    // cost up accordingly.
    const std::uint64_t cycles =
        cyclesFor(op, count, operand) * config_.vpuLaneGroups;

    // Mod switch and sample extraction are tiny next to key switching;
    // the lane-group datapath interleaves them into whatever long task
    // is streaming instead of serializing behind it (their cycles still
    // count as occupancy).
    const bool fine_grained = op == compiler::Opcode::VpuModSwitch ||
                              op == compiler::Opcode::VpuSampleExtract;
    sim::Tick done;
    if (fine_grained) {
        done = eq_.now() + cycles;
        groupBusyUntil_[lane_group] =
            std::max(groupBusyUntil_[lane_group], done);
    } else {
        const sim::Tick start =
            std::max(eq_.now(), groupBusyUntil_[lane_group]);
        done = start + cycles;
        groupBusyUntil_[lane_group] = done;
    }
    busyCycles_ += cycles;
    MORPHLING_SIM_INTERVAL("vpu.lane" + std::to_string(lane_group),
                           compiler::opcodeName(op), done - cycles,
                           done, 0);

    stats_.scalar("busy_cycles", "lane-group busy cycles (sum)") +=
        static_cast<double>(cycles);
    stats_.scalar("busy_" + compiler::opcodeName(op)) +=
        static_cast<double>(cycles);
    ++stats_.scalar("tasks", "instructions executed");

    if (on_done)
        eq_.schedule(done, std::move(on_done));
    return done;
}

std::uint64_t
VpuModel::busyCyclesFor(compiler::Opcode op) const
{
    const std::string name = "busy_" + compiler::opcodeName(op);
    if (!stats_.has(name))
        return 0;
    return static_cast<std::uint64_t>(stats_.lookup(name).value());
}

sim::Tick
VpuModel::drainTick() const
{
    sim::Tick max_tick = 0;
    for (auto t : groupBusyUntil_)
        max_tick = std::max(max_tick, t);
    return max_tick;
}

} // namespace morphling::arch
