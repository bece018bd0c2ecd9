#include "functional_backend.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
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
FunctionalBackend::reset()
{
    program_ = nullptr;
    inputs_ = nullptr;
    chunks_.clear();
    groups_.clear();
    outputs_.clear();
    log_.clear();
}

void
FunctionalBackend::bindProgram(const compiler::Program &program,
                               const Job &job)
{
    groups_.resize(program.numGroups());

    // Walk the stream once, carving out chunks: each DMA.LD_LWE opens
    // a chunk covering the next `count` input slots (the SW scheduler
    // emits chunks in input order, so a flat cursor reproduces the
    // slot assignment); subsequent chunk-stage ops of the same group
    // bind to the open chunk until DMA.ST_LWE closes it.
    std::vector<int> open(groups_.size(), -1);
    std::size_t cursor = 0;
    const auto &instrs = program.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const auto &inst = instrs[i];
        auto &gs = groups_[inst.group];
        InstrRef ref{i, -1};
        switch (inst.op) {
          case Opcode::DmaLoadLwe: {
            panic_if(open[inst.group] >= 0,
                     "DMA.LD_LWE while group ",
                     static_cast<unsigned>(inst.group),
                     " has an open chunk");
            Chunk chunk;
            chunk.slotBegin = cursor;
            chunk.count = inst.count;
            cursor += inst.count;
            open[inst.group] = static_cast<int>(chunks_.size());
            ref.chunk = open[inst.group];
            chunks_.push_back(std::move(chunk));
            break;
          }
          case Opcode::VpuModSwitch:
          case Opcode::DmaLoadBsk:
          case Opcode::XpuBlindRotate:
          case Opcode::VpuSampleExtract:
          case Opcode::DmaLoadKsk:
          case Opcode::VpuKeySwitch:
          case Opcode::DmaStoreLwe: {
            ref.chunk = open[inst.group];
            panic_if(ref.chunk < 0, inst.toString(),
                     " outside an open chunk");
            panic_if(
                inst.count != chunks_[ref.chunk].count,
                inst.toString(), ": count mismatch with chunk head");
            if (inst.op == Opcode::DmaStoreLwe)
                open[inst.group] = -1;
            break;
          }
          case Opcode::DmaLoadData:
          case Opcode::VpuPAlu:
          case Opcode::Barrier:
            // Carry no ciphertext data (the Program encodes byte/MAC
            // volumes, not operand bindings).
            break;
        }
        gs.stream.push_back(ref);
    }
    for (unsigned g = 0; g < groups_.size(); ++g) {
        panic_if(open[g] >= 0, "group ", g,
                 " ends with an unterminated chunk");
    }

    const std::uint64_t total_br = program.totalBlindRotations();
    panic_if(cursor != total_br,
             "DMA.LD_LWE covers ", cursor, " slots but XPU.BR covers ",
             total_br);

    if (total_br > 0) {
        panic_if(job.inputs == nullptr,
                 "program performs blind rotations but the job has no "
                 "inputs");
        panic_if(job.inputs->size() != total_br,
                 "job has ", job.inputs->size(),
                 " inputs for a program of ", total_br, " slots");
        panic_if(job.lut == nullptr || job.lut->empty(),
                 "program performs blind rotations but the job has no "
                 "LUT");
        if (job.signLut) {
            // Gate bootstrapping: the whole ring maps to one magnitude
            // (sign extraction). No staircase slot structure exists, so
            // the message-space noise audit does not apply.
            panic_if(job.lut->size() != 1,
                     "sign jobs carry exactly one LUT entry (mu), got ",
                     job.lut->size());
            testPoly_ = tfhe::constantTestPolynomial(params_.polyDegree,
                                                     (*job.lut)[0]);
        } else {
            tfhe::auditBatchLut(params_, *job.lut, job.options);
            tfhe::buildTestPolynomialInto(params_.polyDegree, *job.lut,
                                          testPoly_);
        }
        outputs_.assign(total_br,
                        tfhe::LweCiphertext(params_.lweDimension));
    }
}

bool
FunctionalBackend::allFinished() const
{
    for (const auto &gs : groups_) {
        if (gs.pc < gs.stream.size())
            return false;
    }
    return true;
}

void
FunctionalBackend::releaseBarrier()
{
    // Mirrors the HW scheduler's rendezvous: every group must reach
    // the same barrier before any proceeds.
    std::uint32_t barrier_id = 0;
    bool first = true;
    for (unsigned g = 0; g < groups_.size(); ++g) {
        auto &gs = groups_[g];
        panic_if(gs.pc >= gs.stream.size(),
                 "group ", g, " finished before barrier rendezvous");
        const auto &inst = program_->at(gs.stream[gs.pc].index);
        panic_if(inst.op != Opcode::Barrier,
                 "group ", g, " blocked on a non-barrier");
        if (first) {
            barrier_id = inst.operand;
            first = false;
        } else {
            panic_if(inst.operand != barrier_id,
                     "barrier id mismatch: group ", g, " waits at ",
                     inst.operand, ", expected ", barrier_id);
        }
    }
    for (auto &gs : groups_) {
        const std::size_t index = gs.stream[gs.pc++].index;
        log_.push_back({index, program_->at(index), log_.size(), 0});
    }
}

void
FunctionalBackend::execute(const InstrRef &ref,
                           tfhe::BootstrapWorkspace &ws)
{
    const auto &inst = program_->at(ref.index);
    MORPHLING_TELEMETRY_ONLY(
        telemetry::Span span("exec", spanNameFor(inst.op));)

    switch (inst.op) {
      case Opcode::DmaLoadLwe: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(chunk.staged, "chunk staged twice");
        chunk.staging.assign(
            inputs_->begin() + chunk.slotBegin,
            inputs_->begin() + chunk.slotBegin + chunk.count);
        for (const auto &ct : chunk.staging) {
            panic_if(ct.dimension() != params_.lweDimension,
                     "input dimension ", ct.dimension(),
                     " != n = ", params_.lweDimension);
        }
        chunk.staged = true;
        break;
      }
      case Opcode::VpuModSwitch: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(!chunk.staged || chunk.modSwitched,
                 "VPU.MS out of order");
        chunk.switched.resize(chunk.count);
        for (unsigned i = 0; i < chunk.count; ++i) {
            tfhe::modSwitchInto(chunk.staging[i], params_.polyDegree,
                                chunk.switched[i]);
        }
        chunk.modSwitched = true;
        break;
      }
      case Opcode::DmaLoadBsk: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(chunk.bskArmed, "DMA.LD_BSK out of order");
        chunk.bskArmed = true;
        break;
      }
      case Opcode::XpuBlindRotate: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(!chunk.modSwitched || !chunk.bskArmed || chunk.rotated,
                 "XPU.BR out of order");
        // The whole chunk in one call: each full tile of W
        // ciphertexts takes all n CMux rounds in one lane-resident
        // pass (each BSK_i coefficient serving W lanes, as a streamed
        // BSK_i serves a VPE row), the rest iteration-major. The
        // chunk's one DMA.LD_BSK is the accelerator's reuse; the CPU
        // order does not change it.
        chunk.accs.resize(chunk.count);
        tfhe::blindRotateBatch(bsk_, testPoly_, chunk.switched.data(),
                               chunk.accs.data(), chunk.count, ws);
        chunk.rotated = true;
        break;
      }
      case Opcode::VpuSampleExtract: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(!chunk.rotated || chunk.extracted,
                 "VPU.SE out of order");
        chunk.extractedCts.resize(chunk.count);
        for (unsigned i = 0; i < chunk.count; ++i)
            chunk.accs[i].sampleExtractAtInto(0, chunk.extractedCts[i]);
        chunk.accs.clear(); // the accumulators are drained
        chunk.extracted = true;
        break;
      }
      case Opcode::DmaLoadKsk: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(chunk.kskLoaded, "DMA.LD_KSK out of order");
        chunk.kskLoaded = true;
        break;
      }
      case Opcode::VpuKeySwitch: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(!chunk.extracted || !chunk.kskLoaded ||
                     chunk.keySwitched,
                 "VPU.KS out of order");
        // Chunk-major: each KSK row serves the whole chunk, as the
        // chunk's one DMA.LD_KSK serves the VPU.
        chunk.results.resize(chunk.count);
        ksk_.applyBatch(chunk.extractedCts.data(), chunk.results.data(),
                        chunk.count);
        chunk.keySwitched = true;
        break;
      }
      case Opcode::DmaStoreLwe: {
        Chunk &chunk = chunks_[ref.chunk];
        panic_if(!chunk.keySwitched || chunk.stored,
                 "DMA.ST_LWE out of order");
        for (unsigned i = 0; i < chunk.count; ++i)
            outputs_[chunk.slotBegin + i] = std::move(chunk.results[i]);
        chunk.stored = true;
        // Release the chunk's staging memory; the chunk is drained.
        chunk.staging.clear();
        chunk.switched.clear();
        chunk.extractedCts.clear();
        chunk.results.clear();
        break;
      }
      case Opcode::DmaLoadData:
      case Opcode::VpuPAlu:
        // Linear (P-ALU) work carries no ciphertext operands in the
        // Program encoding (byte/MAC volumes only) — a timing-visible,
        // data-free stage.
        break;
      case Opcode::Barrier:
        panic("barrier reached execute()");
    }
}

void
FunctionalBackend::runSegments(unsigned threads)
{
    const auto n_groups = static_cast<unsigned>(groups_.size());
    while (!allFinished()) {
        // Groups with runnable (non-barrier) work form one
        // barrier-delimited segment; they are data-independent by
        // construction (disjoint chunks, disjoint output slots).
        std::vector<unsigned> active;
        for (unsigned g = 0; g < n_groups; ++g) {
            auto &gs = groups_[g];
            if (gs.pc < gs.stream.size() &&
                program_->at(gs.stream[gs.pc].index).op !=
                    Opcode::Barrier)
                active.push_back(g);
        }

        if (active.empty()) {
            releaseBarrier();
            continue;
        }

        std::vector<std::vector<std::size_t>> logs(n_groups);
        std::atomic<std::size_t> next{0};
        auto worker = [&]() {
            auto &ws = tfhe::BootstrapWorkspace::forThisThread();
            for (std::size_t j =
                     next.fetch_add(1, std::memory_order_relaxed);
                 j < active.size();
                 j = next.fetch_add(1, std::memory_order_relaxed)) {
                const unsigned g = active[j];
                auto &gs = groups_[g];
                while (gs.pc < gs.stream.size()) {
                    const auto &ref = gs.stream[gs.pc];
                    if (program_->at(ref.index).op == Opcode::Barrier)
                        break;
                    execute(ref, ws);
                    logs[g].push_back(ref.index);
                    ++gs.pc;
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
}

ExecutionResult
FunctionalBackend::run(const compiler::Program &program, const Job &job)
{
    reset();
    bindProgram(program, job);
    program_ = &program;
    inputs_ = job.inputs;
    log_.reserve(program.size());
    unsigned threads = job.options.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    runSegments(threads);

    ExecutionResult result;
    result.backend = name();
    result.outputs = std::move(outputs_);
    result.hasOutputs = true;
    result.retired = std::move(log_);
    reset();
    return result;
}

} // namespace morphling::exec
