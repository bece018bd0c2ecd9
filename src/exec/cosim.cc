#include "cosim.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "exec/sharded_backend.h"
#include "exec/timing_backend.h"
#include "telemetry/telemetry.h"

namespace morphling::exec {

using compiler::Opcode;

namespace {

/** Bounded error collector: keeps diagnostics readable when a broken
 *  backend would otherwise emit thousands. */
class ErrorSink
{
  public:
    explicit ErrorSink(std::vector<std::string> &errors,
                       std::size_t max)
        : errors_(errors), max_(max)
    {
    }

    template <typename... Args>
    void
    add(Args &&...args)
    {
        ++total_;
        if (errors_.size() >= max_)
            return;
        std::ostringstream oss;
        (oss << ... << args);
        errors_.push_back(oss.str());
    }

    std::size_t total() const { return total_; }

  private:
    std::vector<std::string> &errors_;
    std::size_t max_;
    std::size_t total_ = 0;
};

/** Exactly-once coverage plus per-group program-order check of one
 *  backend's retirement log. */
void
checkRetirement(const compiler::Program &program,
                const std::vector<RetiredInstruction> &retired,
                std::string_view backend, ErrorSink &sink)
{
    if (retired.size() != program.size()) {
        sink.add(backend, " retired ", retired.size(), " of ",
                 program.size(), " instructions");
    }
    std::vector<char> seen(program.size(), 0);
    for (const auto &r : retired) {
        if (r.index >= program.size()) {
            sink.add(backend, " retired out-of-range index ", r.index);
            continue;
        }
        if (seen[r.index]) {
            sink.add(backend, " retired instruction ", r.index, " (",
                     r.inst.toString(), ") more than once");
        }
        seen[r.index] = 1;
        if (!(r.inst == program.at(r.index))) {
            sink.add(backend, " retired a mutated instruction at ",
                     r.index, ": ", r.inst.toString(), " vs ",
                     program.at(r.index).toString());
        }
    }

    // Per-group program order: the subsequence of retired indices of
    // each group must be strictly increasing (program order).
    std::vector<std::size_t> last(program.numGroups(), 0);
    std::vector<char> started(program.numGroups(), 0);
    for (const auto &r : retired) {
        if (r.index >= program.size())
            continue;
        const unsigned g = program.at(r.index).group;
        if (started[g] && r.index <= last[g]) {
            sink.add(backend, " violated group ", g,
                     " program order: index ", r.index, " after ",
                     last[g]);
        }
        started[g] = 1;
        last[g] = r.index;
    }
}

/** Dependency-order checks over the timing backend's raw completion
 *  log: tick monotonicity within every chunk chain, and barrier
 *  segmentation (nothing after a rendezvous completes before it
 *  releases). */
void
checkCompletionOrder(const compiler::Program &program,
                     const std::vector<RetiredInstruction> &completions,
                     ErrorSink &sink)
{
    if (completions.size() != program.size())
        return; // coverage diagnostics already emitted

    std::vector<std::uint64_t> tick_of(program.size(), 0);
    for (const auto &r : completions) {
        if (r.index < program.size())
            tick_of[r.index] = r.tick;
    }

    // Chains mirror the HW scheduler: a new chain starts at each
    // staging head (LD_LWE / LD_DATA) or barrier. Within a chain,
    // completion ticks must be monotone — instruction j depends on
    // j-1.
    const auto &instrs = program.instructions();
    std::vector<std::uint64_t> chain_last(program.numGroups(), 0);
    std::vector<char> in_chain(program.numGroups(), 0);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const auto &inst = instrs[i];
        const unsigned g = inst.group;
        const bool starts_chain = inst.op == Opcode::DmaLoadLwe ||
                                  inst.op == Opcode::DmaLoadData ||
                                  inst.op == Opcode::Barrier;
        if (starts_chain || !in_chain[g]) {
            in_chain[g] = 1;
            chain_last[g] = tick_of[i];
            continue;
        }
        if (tick_of[i] < chain_last[g]) {
            sink.add("timing completed ", inst.toString(),
                     " (index ", i, ") at tick ", tick_of[i],
                     ", before its chain predecessor at ",
                     chain_last[g]);
        }
        chain_last[g] = std::max(chain_last[g], tick_of[i]);
    }

    // Barrier segmentation: an instruction after its group's k-th
    // barrier must complete no earlier than rendezvous k released (the
    // latest k-th barrier of any group). Groups interleave freely in
    // the flat program, so the segment is counted per group.
    std::vector<std::uint64_t> released;
    std::vector<std::size_t> met(program.numGroups(), 0);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].op != Opcode::Barrier)
            continue;
        const std::size_t k = met[instrs[i].group]++;
        if (k == released.size())
            released.push_back(0);
        released[k] = std::max(released[k], tick_of[i]);
    }
    std::fill(met.begin(), met.end(), 0);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        std::size_t &k = met[instrs[i].group];
        if (instrs[i].op == Opcode::Barrier) {
            ++k;
            continue;
        }
        if (k > 0 && tick_of[i] < released[k - 1]) {
            sink.add("timing completed ", instrs[i].toString(),
                     " (index ", i, ") at tick ", tick_of[i],
                     ", before the preceding barrier released at ",
                     released[k - 1]);
        }
    }
}

/** Sharded-reference checks: the shard slices must partition the
 *  program (every group owned by exactly one shard, slice streams
 *  jointly covering every instruction), and each shard's shard-local
 *  completion log must satisfy the same dependency-order invariants as
 *  a monolithic timing backend. */
void
checkSharded(const compiler::Program &program,
             const ShardedBackend &sharded, ErrorSink &sink)
{
    const unsigned n_groups = program.numGroups();
    std::vector<unsigned> owners(n_groups, 0);
    std::size_t covered = 0;
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        const auto &slice = sharded.slice(s);
        for (const unsigned g : slice.groups) {
            if (g < n_groups)
                ++owners[g];
        }
        covered += slice.program.size();
    }
    for (unsigned g = 0; g < n_groups; ++g) {
        if (owners[g] != 1) {
            sink.add("sharded partition: group ", g, " is owned by ",
                     owners[g], " shards, expected exactly one");
        }
    }
    if (covered != program.size()) {
        sink.add("sharded partition: slices cover ", covered, " of ",
                 program.size(), " instructions");
    }
    // Fleet shards have no TimingBackend of their own; their raw
    // shared-clock completion logs come straight off the backend.
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        checkCompletionOrder(
            sharded.slice(s).program,
            sharded.fleetMode() ? sharded.shardCompletions()[s]
                                : sharded.shardBackend(s).completionOrder(),
            sink);
    }
}

} // namespace

std::string
CosimReport::summary() const
{
    std::ostringstream oss;
    if (ok()) {
        oss << "cosim OK: " << instructions << " instructions, "
            << lockstepComparisons << " lockstep comparisons";
        if (timing.hasReport)
            oss << ", " << timing.report.cycles << " cycles";
    } else {
        oss << "cosim FAILED with " << errors.size()
            << " diagnostics; first: " << errors.front();
    }
    return oss.str();
}

LockstepCosim::LockstepCosim(ExecutionBackend &functional,
                             ExecutionBackend &timing,
                             CosimOptions options)
    : functional_(functional), timing_(timing), options_(options)
{
}

CosimReport
LockstepCosim::run(const compiler::Program &program, const Job &job)
{
    MORPHLING_SPAN("exec", "cosim");
    CosimReport report;
    report.instructions = program.size();
    ErrorSink sink(report.errors, options_.maxErrors);

    report.functional = functional_.run(program, job);
    report.timing = timing_.run(program, job);
    const auto &f_log = report.functional.retired;
    const auto &t_log = report.timing.retired;

    // Match the two logs per group: backends interleave groups
    // differently (barrier segments vs. simulated time), so the match
    // point is each group's k-th retirement, not the global sequence.
    const unsigned n_groups = std::max(1u, program.numGroups());
    auto by_group = [n_groups](const std::vector<RetiredInstruction> &log) {
        std::vector<std::vector<const RetiredInstruction *>> queues(
            n_groups);
        for (const auto &r : log) {
            if (r.inst.group < n_groups)
                queues[r.inst.group].push_back(&r);
        }
        return queues;
    };
    const auto fq = by_group(f_log);
    const auto tq = by_group(t_log);
    for (unsigned g = 0; g < n_groups; ++g) {
        const std::size_t matched = std::min(fq[g].size(), tq[g].size());
        for (std::size_t k = 0; k < matched; ++k) {
            const auto &f = *fq[g][k];
            const auto &t = *tq[g][k];
            if (f.index != t.index || !(f.inst == t.inst)) {
                sink.add("lockstep mismatch in group ", g, ": ",
                         functional_.name(), " retired index ", f.index,
                         " (", f.inst.toString(), "), ", timing_.name(),
                         " retired index ", t.index, " (",
                         t.inst.toString(), ")");
            }
        }
        report.lockstepComparisons += matched;
        if (fq[g].size() != tq[g].size()) {
            sink.add("group ", g, " retirement counts differ: ",
                     functional_.name(), " has ", fq[g].size() - matched,
                     " unmatched, ", timing_.name(), " has ",
                     tq[g].size() - matched);
        }
    }

    checkRetirement(program, f_log, functional_.name(), sink);
    checkRetirement(program, t_log, timing_.name(), sink);

    for (ExecutionBackend *backend : {&functional_, &timing_}) {
        if (const auto *tb = dynamic_cast<TimingBackend *>(backend))
            checkCompletionOrder(program, tb->completionOrder(), sink);
        else if (const auto *sb = dynamic_cast<ShardedBackend *>(backend))
            checkSharded(program, *sb, sink);
    }

    // End-of-program ciphertext correctness vs. the library reference.
    if (options_.referenceKeys != nullptr && job.inputs != nullptr &&
        job.lut != nullptr && report.functional.hasOutputs) {
        const auto reference =
            job.signLut ? tfhe::batchSignBootstrap(
                              *options_.referenceKeys, *job.inputs,
                              (*job.lut)[0], job.options)
                        : tfhe::batchBootstrap(*options_.referenceKeys,
                                               *job.inputs, *job.lut,
                                               job.options);
        if (reference.size() != report.functional.outputs.size()) {
            sink.add("output count mismatch: backend produced ",
                     report.functional.outputs.size(),
                     ", reference produced ", reference.size());
        } else {
            for (std::size_t i = 0; i < reference.size(); ++i) {
                if (report.functional.outputs[i].raw() !=
                    reference[i].raw()) {
                    sink.add("output ", i, " is not bit-identical to "
                             "the tfhe::bootstrapInto reference");
                }
            }
        }
    }

    if (sink.total() > report.errors.size()) {
        report.errors.push_back(
            "... " +
            std::to_string(sink.total() - report.errors.size()) +
            " further diagnostics suppressed");
    }
    return report;
}

CosimError::CosimError(CosimReport report)
    : std::runtime_error(report.summary()),
      report_(std::make_shared<const CosimReport>(std::move(report)))
{
}

CosimBackend::CosimBackend(std::unique_ptr<ExecutionBackend> functional,
                           std::unique_ptr<ExecutionBackend> timing,
                           CosimOptions options)
    : functional_(std::move(functional)), timing_(std::move(timing)),
      options_(options)
{
}

ExecutionResult
CosimBackend::run(const compiler::Program &program, const Job &job)
{
    CosimReport report =
        LockstepCosim(*functional_, *timing_, options_).run(program, job);
    if (!report.ok())
        throw CosimError(std::move(report));
    ExecutionResult result = std::move(report.functional);
    result.backend = name();
    result.report = std::move(report.timing.report);
    result.hasReport = report.timing.hasReport;
    return result;
}

} // namespace morphling::exec
