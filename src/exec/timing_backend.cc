#include "timing_backend.h"

#include <algorithm>

#include "common/logging.h"

namespace morphling::exec {

std::vector<RetiredInstruction>
architecturalRetirement(const compiler::Program &program,
                        const std::vector<RetiredInstruction> &completions)
{
    // Coverage: the simulation must have completed every instruction
    // exactly once — anything else is a scheduler bug.
    panic_if(completions.size() != program.size(),
             "simulation completed ", completions.size(), " of ",
             program.size(), " instructions");
    std::vector<char> seen(program.size(), 0);
    for (const auto &r : completions) {
        panic_if(r.index >= program.size(),
                 "instruction index ", r.index, " out of range");
        panic_if(seen[r.index], "instruction ", r.index,
                 " completed twice");
        seen[r.index] = 1;
    }

    std::vector<std::uint64_t> tick_of(program.size(), 0);
    for (const auto &r : completions)
        tick_of[r.index] = r.tick;

    std::vector<std::uint64_t> group_floor(program.numGroups(), 0);
    std::vector<RetiredInstruction> retired;
    retired.reserve(program.size());
    const auto &instrs = program.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        auto &floor = group_floor[instrs[i].group];
        floor = std::max(floor, tick_of[i]);
        RetiredInstruction r;
        r.index = i;
        r.inst = instrs[i];
        r.tick = floor;
        retired.push_back(r);
    }
    std::stable_sort(retired.begin(), retired.end(),
                     [](const RetiredInstruction &a,
                        const RetiredInstruction &b) {
                         return a.tick < b.tick;
                     });
    for (std::size_t i = 0; i < retired.size(); ++i)
        retired[i].seq = i;
    return retired;
}

TimingBackend::TimingBackend(arch::ArchConfig config,
                             const tfhe::TfheParams &params)
    : accel_(std::move(config), params)
{
}

ExecutionResult
TimingBackend::run(const compiler::Program &program, const Job &)
{
    compiler::verifyOrThrow(program, accel_.params());
    completions_.clear();
    report_ = arch::SimReport{};
    ExecutionResult result;
    result.backend = name();
    if (program.size() == 0)
        return result; // nothing to simulate, nothing to report

    report_ = accel_.run(
        program,
        [this](std::size_t index, const compiler::Instruction &inst,
               std::uint64_t tick) {
            completions_.push_back({index, inst, completions_.size(),
                                    tick});
        });
    result.report = report_;
    result.hasReport = true;
    result.retired = architecturalRetirement(program, completions_);
    return result;
}

} // namespace morphling::exec
