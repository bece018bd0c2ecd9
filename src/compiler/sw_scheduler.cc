#include "sw_scheduler.h"

#include <stdexcept>

#include "common/bits.h"

namespace morphling::compiler {

SwScheduler::SwScheduler(const tfhe::TfheParams &params,
                         SchedulerConfig config)
    : params_(params), config_(config)
{
    if (config.groupSize == 0 || config.numGroups == 0)
        throw std::invalid_argument("scheduler needs nonzero group geometry");
    if (config.numGroups > 16)
        throw std::invalid_argument("group id must fit the encoding");
    if (config.kskReuse == 0)
        throw std::invalid_argument("kskReuse must be positive");
}

std::uint64_t
SwScheduler::bskBytesPerIteration() const
{
    // One GGSW in the transform domain: (k+1)*l_b*(k+1) polynomials of
    // N/2 complex elements, 8 bytes each (32-bit real + imaginary).
    return params_.polysPerGgsw() * (params_.polyDegree / 2) * 8;
}

std::uint64_t
SwScheduler::kskBytesFor(std::uint64_t count) const
{
    return divCeil(params_.kskBytes() * count,
                   std::uint64_t{config_.kskReuse});
}

void
SwScheduler::emitBootstrapChunk(Program &prog, std::uint8_t group,
                                std::uint16_t count) const
{
    const auto lwe_bytes =
        static_cast<std::uint32_t>((params_.lweDimension + 1) * 4 * count);

    prog.add({Opcode::DmaLoadLwe, group, count, lwe_bytes});
    prog.add({Opcode::VpuModSwitch, group, count, 0});
    prog.add({Opcode::DmaLoadBsk, group, count,
              static_cast<std::uint32_t>(bskBytesPerIteration())});
    prog.add({Opcode::XpuBlindRotate, group, count,
              params_.lweDimension});
    prog.add({Opcode::VpuSampleExtract, group, count, 0});
    prog.add({Opcode::DmaLoadKsk, group, count,
              static_cast<std::uint32_t>(kskBytesFor(count))});
    prog.add({Opcode::VpuKeySwitch, group, count, 0});
    prog.add({Opcode::DmaStoreLwe, group, count, lwe_bytes});
}

Program
SwScheduler::schedule(const Workload &workload) const
{
    Program prog(workload.name);
    std::uint32_t barrier_id = 0;
    // Round-robin assignment persists across stages so short stages
    // still spread over all groups in aggregate.
    std::uint8_t group = 0;

    for (std::size_t s = 0; s < workload.stages.size(); ++s) {
        const auto &stage = workload.stages[s];

        // Linear (P-ALU) work first: split evenly over the groups so
        // all four VPU lane-groups contribute.
        if (stage.linearMacs > 0) {
            const std::uint64_t per_group = divCeil(
                stage.linearMacs, std::uint64_t{config_.numGroups});
            for (std::uint8_t g = 0; g < config_.numGroups; ++g) {
                const std::uint64_t macs = std::min(
                    per_group,
                    stage.linearMacs -
                        std::min(stage.linearMacs,
                                 std::uint64_t{g} * per_group));
                if (macs == 0)
                    continue;
                // Weights: 4 bytes per MAC streamed from HBM.
                prog.add({Opcode::DmaLoadData, g, 0,
                          static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(macs * 4,
                                                      0xFFFFFFFFull))});
                prog.add({Opcode::VpuPAlu, g, 0,
                          static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(macs,
                                                      0xFFFFFFFFull))});
            }
        }

        // Bootstraps over the groups, per the configured interleave.
        std::uint64_t remaining = stage.bootstraps;
        if (config_.interleave == InterleaveMode::kGroupInterleaved) {
            // Rounds of one chunk per group, sized evenly (±1), so
            // every group's chunk sequence has the same length and
            // the groups — and any shards sliced from them — hit the
            // same blind-rotation iteration in the same round.
            while (remaining > 0) {
                const std::uint64_t round_total =
                    std::min<std::uint64_t>(
                        remaining, std::uint64_t{config_.numGroups} *
                                       config_.groupSize);
                const std::uint64_t base =
                    round_total / config_.numGroups;
                const std::uint64_t rem =
                    round_total % config_.numGroups;
                for (std::uint8_t g = 0; g < config_.numGroups; ++g) {
                    const std::uint64_t chunk =
                        base + (g < rem ? 1 : 0);
                    if (chunk == 0)
                        continue;
                    emitBootstrapChunk(
                        prog, g, static_cast<std::uint16_t>(chunk));
                }
                remaining -= round_total;
            }
        } else {
            while (remaining > 0) {
                const auto chunk = static_cast<std::uint16_t>(
                    std::min<std::uint64_t>(remaining,
                                            config_.groupSize));
                emitBootstrapChunk(prog, group, chunk);
                remaining -= chunk;
                group = static_cast<std::uint8_t>(
                    (group + 1) % config_.numGroups);
            }
        }

        // Stage boundary: every group must finish before the next
        // stage starts (its inputs are this stage's outputs).
        if (s + 1 < workload.stages.size()) {
            for (std::uint8_t g = 0; g < config_.numGroups; ++g)
                prog.add({Opcode::Barrier, g, 0, barrier_id});
            ++barrier_id;
        }
    }
    return prog;
}

Program
SwScheduler::scheduleBootstrapBatch(std::uint64_t count) const
{
    Workload w;
    w.name = "bootstrap-batch";
    w.stages.push_back({count, 0});
    return schedule(w);
}

} // namespace morphling::compiler
