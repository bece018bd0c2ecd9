#include "functional_backend.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "telemetry/telemetry.h"

namespace morphling::exec {

using compiler::Opcode;

#if MORPHLING_TELEMETRY_ENABLED
namespace {

/** Span name per opcode: string literals, as the telemetry ring
 *  stores the pointer rather than copying. */
const char *
spanNameFor(Opcode op)
{
    switch (op) {
      case Opcode::DmaLoadLwe:
        return "DMA.LD_LWE";
      case Opcode::DmaLoadBsk:
        return "DMA.LD_BSK";
      case Opcode::DmaLoadKsk:
        return "DMA.LD_KSK";
      case Opcode::DmaLoadData:
        return "DMA.LD_DATA";
      case Opcode::DmaStoreLwe:
        return "DMA.ST_LWE";
      case Opcode::VpuModSwitch:
        return "VPU.MS";
      case Opcode::VpuSampleExtract:
        return "VPU.SE";
      case Opcode::VpuKeySwitch:
        return "VPU.KS";
      case Opcode::VpuPAlu:
        return "VPU.PALU";
      case Opcode::XpuBlindRotate:
        return "XPU.BR";
      case Opcode::Barrier:
        return "CTRL.BAR";
    }
    return "exec.unknown";
}

} // namespace
#endif

FunctionalBackend::FunctionalBackend(const tfhe::EvaluationKeys &keys)
    : params_(keys.params), bsk_(keys.bsk), ksk_(keys.ksk)
{
}

FunctionalBackend::FunctionalBackend(const tfhe::KeySet &keys)
    : params_(keys.params), bsk_(keys.bsk), ksk_(keys.ksk)
{
}

void
FunctionalBackend::execute(std::size_t index, Group &group,
                           tfhe::BootstrapWorkspace &ws)
{
    const auto &inst = program_->at(index);
    MORPHLING_TELEMETRY_ONLY(
        telemetry::Span span("exec", spanNameFor(inst.op));)

    switch (inst.op) {
      case Opcode::VpuModSwitch: {
        const std::size_t first =
            plan_.chunks[plan_.chunkOf[index]].slotBegin;
        group.switched.resize(inst.count);
        for (unsigned i = 0; i < inst.count; ++i) {
            tfhe::modSwitchInto((*inputs_)[first + i], params_.polyDegree,
                                group.switched[i]);
        }
        break;
      }
      case Opcode::XpuBlindRotate:
        // The whole chunk in one call, iteration-major: every
        // ciphertext takes BSK_i before any takes BSK_{i+1}, so the
        // CPU reads each BSK_i once per chunk, as the chunk's one
        // DMA.LD_BSK streams it. Full tiles of W ciphertexts stay
        // lane-resident (each BSK_i coefficient serving W lanes, as a
        // streamed BSK_i serves a VPE row); the rest run row-lane.
        group.accs.resize(inst.count);
        tfhe::blindRotateBatch(bsk_, testPoly_, group.switched.data(),
                               group.accs.data(), inst.count, ws);
        break;
      case Opcode::VpuSampleExtract:
        group.extracted.resize(inst.count);
        for (unsigned i = 0; i < inst.count; ++i)
            group.accs[i].sampleExtractAtInto(0, group.extracted[i]);
        group.accs.clear(); // the accumulators are drained
        break;
      case Opcode::VpuKeySwitch:
        // Chunk-major: each KSK row serves the whole chunk, as the
        // chunk's one DMA.LD_KSK serves the VPU.
        group.results.resize(inst.count);
        ksk_.applyBatch(group.extracted.data(), group.results.data(),
                        inst.count);
        break;
      case Opcode::DmaStoreLwe: {
        const std::size_t first =
            plan_.chunks[plan_.chunkOf[index]].slotBegin;
        for (unsigned i = 0; i < inst.count; ++i)
            outputs_[first + i] = std::move(group.results[i]);
        // The chunk is drained: release its memory before the next.
        group.switched.clear();
        group.extracted.clear();
        group.results.clear();
        break;
      }
      case Opcode::DmaLoadLwe:
      case Opcode::DmaLoadBsk:
      case Opcode::DmaLoadKsk:
      case Opcode::DmaLoadData:
      case Opcode::VpuPAlu:
      case Opcode::Barrier:
        break;
    }
}

void
FunctionalBackend::runSegment(unsigned threads)
{
    // Groups with work before their next barrier; they are
    // data-independent by construction (disjoint chunks, disjoint
    // output slots).
    std::vector<unsigned> active;
    for (unsigned g = 0; g < groups_.size(); ++g) {
        const Group &group = groups_[g];
        if (group.pc < group.stream.size() &&
            program_->at(group.stream[group.pc]).op != Opcode::Barrier)
            active.push_back(g);
    }
    if (active.empty())
        return;

    std::vector<std::vector<std::size_t>> logs(groups_.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        auto &ws = tfhe::BootstrapWorkspace::forThisThread();
        for (std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
             j < active.size();
             j = next.fetch_add(1, std::memory_order_relaxed)) {
            const unsigned g = active[j];
            Group &group = groups_[g];
            while (group.pc < group.stream.size()) {
                const std::size_t index = group.stream[group.pc];
                if (program_->at(index).op == Opcode::Barrier)
                    break;
                execute(index, group, ws);
                logs[g].push_back(index);
                ++group.pc;
            }
        }
    };

    const unsigned workers = std::min<unsigned>(
        threads, static_cast<unsigned>(active.size()));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (unsigned t = 0; t + 1 < workers; ++t)
            pool.emplace_back(worker);
        worker();
        for (auto &t : pool)
            t.join();
    }

    // Deterministic merge: group order within the segment.
    for (const auto &indices : logs) {
        for (const std::size_t index : indices)
            log_.push_back({index, program_->at(index), log_.size(), 0});
    }
}

ExecutionResult
FunctionalBackend::run(const compiler::Program &program, const Job &job)
{
    plan_ = compiler::verifyOrThrow(program, params_);
    if (const auto error = validateJob(plan_, job, params_))
        throw std::invalid_argument(*error);

    program_ = &program;
    inputs_ = job.inputs;
    groups_.assign(program.numGroups(), Group{});
    for (std::size_t i = 0; i < program.size(); ++i)
        groups_[program.at(i).group].stream.push_back(i);
    if (plan_.slots > 0) {
        if (job.signLut) {
            // Gate bootstrapping: the whole ring maps to one magnitude
            // (sign extraction). No staircase slot structure exists, so
            // the message-space noise audit does not apply.
            testPoly_ = tfhe::constantTestPolynomial(params_.polyDegree,
                                                     (*job.lut)[0]);
        } else {
            tfhe::auditBatchLut(params_, *job.lut, job.options);
            tfhe::buildTestPolynomialInto(params_.polyDegree, *job.lut,
                                          testPoly_);
        }
    }
    outputs_.assign(plan_.slots, tfhe::LweCiphertext(params_.lweDimension));
    log_.clear();
    log_.reserve(program.size());
    unsigned threads = job.options.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());

    // The verified plan guarantees the rendezvous: every group meets
    // the same barriers in the same order, so after a segment either
    // every group sits at its next barrier or every group is done.
    for (;;) {
        runSegment(threads);
        bool released = false;
        for (Group &group : groups_) {
            if (group.pc == group.stream.size())
                continue;
            const std::size_t index = group.stream[group.pc++];
            log_.push_back({index, program.at(index), log_.size(), 0});
            released = true;
        }
        if (!released)
            break;
    }

    ExecutionResult result;
    result.backend = name();
    result.outputs = std::move(outputs_);
    result.hasOutputs = true;
    result.retired = std::move(log_);
    program_ = nullptr;
    inputs_ = nullptr;
    groups_.clear();
    return result;
}

} // namespace morphling::exec
