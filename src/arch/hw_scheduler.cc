#include "hw_scheduler.h"

#include "common/logging.h"
#include "telemetry/sim_bridge.h"

namespace morphling::arch {

using compiler::Instruction;
using compiler::Opcode;

HwScheduler::HwScheduler(sim::EventQueue &eq,
                         const compiler::Program &program,
                         const ArchConfig &config, XpuComplex &xpu,
                         VpuModel &vpu, sim::DmaEngine &vpu_dma,
                         sim::DmaEngine &xpu_dma,
                         std::function<void()> on_all_done)
    : eq_(eq), config_(config), xpu_(xpu), vpu_(vpu), vpuDma_(vpu_dma),
      xpuDma_(xpu_dma), onAllDone_(std::move(on_all_done)),
      inflightLimit_(3),
      chunkLatency_(statSet_.histogram(
          "chunk_latency_cycles",
          "per-chunk latency, first issue to last completion"))
{
    buildChains(program);
}

void
HwScheduler::buildChains(const compiler::Program &program)
{
    // Find the number of groups actually used.
    unsigned max_group = 0;
    for (const auto &inst : program.instructions())
        max_group = std::max<unsigned>(max_group, inst.group);
    groups_.resize(max_group + 1);

    // A new chain starts at each data-staging head instruction or at a
    // barrier (which forms its own chain).
    auto starts_chain = [](Opcode op) {
        return op == Opcode::DmaLoadLwe || op == Opcode::DmaLoadData;
    };

    const auto &instrs = program.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const auto &inst = instrs[i];
        auto &gs = groups_[inst.group];
        const bool need_new =
            gs.chains.empty() || inst.op == Opcode::Barrier ||
            gs.chains.back().isBarrier || starts_chain(inst.op);
        if (need_new) {
            Chain chain;
            chain.isBarrier = inst.op == Opcode::Barrier;
            gs.chains.push_back(std::move(chain));
        }
        gs.chains.back().instrs.push_back(Chain::Slot{inst, i});
    }

    totalChains_ = 0;
    for (const auto &gs : groups_)
        totalChains_ += gs.chains.size();
    statSet_.scalar("chains", "chunk chains in the program")
        .set(static_cast<double>(totalChains_));
}

void
HwScheduler::start()
{
    panic_if(totalChains_ == 0, "empty program");
    for (unsigned g = 0; g < groups_.size(); ++g)
        pump(g);
}

void
HwScheduler::pump(unsigned g)
{
    auto &gs = groups_[g];
    while (gs.inflight < inflightLimit_ &&
           gs.nextChain < gs.chains.size()) {
        Chain &chain = gs.chains[gs.nextChain];
        if (chain.isBarrier) {
            // A barrier only fires once the group fully drained, and
            // releases once every group arrived.
            if (gs.inflight > 0 || gs.waitingAtBarrier)
                return;
            gs.waitingAtBarrier = true;
            ++barrierArrivals_;
            if (barrierExpected_ == 0)
                barrierExpected_ = static_cast<unsigned>(groups_.size());
            if (barrierArrivals_ == barrierExpected_)
                releaseBarrier();
            return;
        }
        ++gs.inflight;
        chain.startTick = eq_.now();
        gs.nextChain++;
        step(g, chain);
    }
}

void
HwScheduler::releaseBarrier()
{
    barrierArrivals_ = 0;
    ++statSet_.scalar("barriers", "stage barriers crossed");
    MORPHLING_SIM_INSTANT("log.sched", "barrier released for all groups",
                          eq_.now());
    for (unsigned g = 0; g < groups_.size(); ++g) {
        auto &gs = groups_[g];
        panic_if(!gs.waitingAtBarrier, "barrier release without arrival");
        gs.waitingAtBarrier = false;
        Chain &chain = gs.chains[gs.nextChain];
        panic_if(!chain.isBarrier, "barrier bookkeeping out of sync");
        if (retireHook_) {
            const auto &slot = chain.instrs.front();
            retireHook_(slot.index, slot.inst, eq_.now());
        }
        gs.nextChain++;
        ++chainsCompleted_; // the barrier chain itself
    }
    if (chainsCompleted_ == totalChains_) {
        if (onAllDone_)
            onAllDone_();
        return;
    }
    for (unsigned g = 0; g < groups_.size(); ++g)
        pump(g);
}

void
HwScheduler::step(unsigned g, Chain &chain)
{
    if (chain.pc == chain.instrs.size()) {
        chainDone(g, chain);
        return;
    }
    const Chain::Slot &slot = chain.instrs[chain.pc++];
    MORPHLING_SIM_INSTANT(
        "log.sched",
        ::morphling::detail::concat("g", g, " issue ", slot.inst.toString()),
        eq_.now());
    dispatch(g, chain, slot);
}

void
HwScheduler::dispatch(unsigned g, Chain &chain, const Chain::Slot &slot)
{
    const Instruction &inst = slot.inst;
    // Retirement is observed in the completion continuation, at the
    // tick the resource reports the instruction done.
    auto continue_chain = [this, g, &chain, slot]() {
        if (retireHook_)
            retireHook_(slot.index, slot.inst, eq_.now());
        step(g, chain);
    };

    switch (inst.op) {
      case Opcode::DmaLoadLwe:
      case Opcode::DmaLoadKsk:
      case Opcode::DmaLoadData:
      case Opcode::DmaStoreLwe:
        vpuDma_.load(inst.operand, continue_chain);
        break;
      case Opcode::DmaLoadBsk:
        // BSK streaming is owned by the XPU complex (per-iteration
        // prefetch into Private-A2); the instruction is the arming
        // marker and completes immediately. At prefetch depth >= 3
        // the arm also starts BSK_0 streaming ahead of the wave.
        ++statSet_.scalar("bsk_arms", "DMA.LD_BSK markers seen");
        xpu_.armColdPrefetch();
        continue_chain();
        break;
      case Opcode::VpuModSwitch:
      case Opcode::VpuSampleExtract:
      case Opcode::VpuKeySwitch:
      case Opcode::VpuPAlu:
        vpu_.submit(g % config_.vpuLaneGroups, inst.op, inst.count,
                    inst.operand, continue_chain);
        break;
      case Opcode::XpuBlindRotate:
        xpu_.submitBlindRotate(g, inst.count, inst.operand,
                               continue_chain);
        break;
      case Opcode::Barrier:
        panic("barrier inside a chunk chain");
    }
}

void
HwScheduler::chainDone(unsigned g, Chain &chain)
{
    auto &gs = groups_[g];
    panic_if(gs.inflight == 0, "chain completion underflow");
    --gs.inflight;
    ++chainsCompleted_;
    chunkLatency_.sample(
        static_cast<double>(eq_.now() - chain.startTick));

    if (chainsCompleted_ == totalChains_) {
        if (onAllDone_)
            onAllDone_();
        return;
    }
    pump(g);
}

} // namespace morphling::arch
