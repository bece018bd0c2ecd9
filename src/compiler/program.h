/**
 * @file
 * A compiled instruction stream plus the workload description it came
 * from.
 *
 * A Program is a flat list of instructions; instructions of the same
 * group execute in list order, different groups are independent (the
 * HW scheduler interleaves them). Serialization round-trips through the
 * 64-bit encoding so streams could be shipped to a device. Which
 * Programs are runnable is defined once, by compiler::verify
 * (compiler/verify.h).
 */

#ifndef MORPHLING_COMPILER_PROGRAM_H
#define MORPHLING_COMPILER_PROGRAM_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compiler/isa.h"

namespace morphling::compiler {

/**
 * One phase of an application: `bootstraps` independent programmable
 * bootstraps, preceded by `linearMacs` ciphertext-scalar MACs (e.g. a
 * convolution layer feeding an activation layer). Stages are
 * sequentially dependent.
 */
struct WorkloadStage
{
    std::uint64_t bootstraps = 0;
    std::uint64_t linearMacs = 0;
};

/** An application workload: named list of dependent stages. */
struct Workload
{
    std::string name;
    std::vector<WorkloadStage> stages;

    std::uint64_t totalBootstraps() const;
    std::uint64_t totalLinearMacs() const;
};

struct ProgramSlice;

/** The compiled instruction stream. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    void add(const Instruction &inst) { instrs_.push_back(inst); }

    std::size_t size() const { return instrs_.size(); }
    const Instruction &at(std::size_t i) const { return instrs_[i]; }
    const std::vector<Instruction> &instructions() const
    {
        return instrs_;
    }

    /** Instructions belonging to one scheduling group, in order. */
    std::vector<Instruction> groupStream(std::uint8_t group) const;

    /** Number of scheduling groups present (highest group id + 1;
     *  0 for an empty program). */
    unsigned numGroups() const;

    /**
     * Carve out the streams of a subset of scheduling groups as a
     * standalone sub-program (see ProgramSlice). `groups` must be
     * non-empty, sorted ascending and duplicate-free (else
     * std::invalid_argument); ids beyond
     * numGroups() are permitted (they contribute empty streams), so a
     * fixed round-robin shard assignment works for any program.
     * Groups are data-independent between barriers, so a slice
     * executes correctly on its own backend; the slice keeps each
     * group's barrier instructions, making the rendezvous local to
     * the slice's groups.
     */
    ProgramSlice sliceGroups(const std::string &name,
                             const std::vector<std::uint8_t> &groups)
        const;

    /** Count of instructions per opcode (used by tests and dumps). */
    std::map<Opcode, std::uint64_t> histogram() const;

    /** Total ciphertexts blind-rotated by this program. */
    std::uint64_t totalBlindRotations() const;

    /** Pack to 64-bit words (the unframed instruction encodings). */
    std::vector<std::uint64_t> serialize() const;

    /** First word of the framed container: 'MORPHP' + format version,
     *  bumped on any layout change. */
    static constexpr std::uint64_t kFramedMagic = 0x4D4F52504850'0001ull;

    /**
     * Pack to a self-describing container for the on-disk program
     * cache: [kFramedMagic, instruction count, numGroups(),
     * instruction words...]. The redundant header fields are what
     * tryDeserializeFramed validates against.
     */
    std::vector<std::uint64_t> serializeFramed() const;

    /**
     * Decode a framed container without trusting it: returns nullopt
     * (with a diagnostic in *error when given) on a short or oversized
     * buffer, a bad magic/version word, an invalid opcode byte, or a
     * group count disagreeing with the header — the hardened surface a
     * cache of on-disk programs decodes through.
     */
    static std::optional<Program>
    tryDeserializeFramed(const std::string &name,
                         const std::vector<std::uint64_t> &words,
                         std::string *error = nullptr);

    /** Multi-line disassembly. */
    std::string disassemble() const;

    /** Disassembly grouped by scheduling group: one `group N` header
     *  per group followed by that group's stream in program order.
     *  Stable format — the golden disassembly test diffs it. */
    std::string disassembleByGroup() const;

  private:
    std::string name_;
    std::vector<Instruction> instrs_;
};

/**
 * One shard's view of a Program (Program::sliceGroups): the
 * instruction streams of a subset of its scheduling groups, in
 * original program order, with group ids remapped densely to
 * 0..groups.size()-1 (backends size their group tables from the
 * highest id, and a barrier rendezvous must not wait on groups the
 * shard does not own). `groups[i]` names the source group that became
 * slice-local group i; `globalIndex[j]` maps slice instruction j back
 * to its index in the source Program — how a sharded runner merges
 * per-shard retirement logs into global program order
 * (exec/sharded_backend.h).
 */
struct ProgramSlice
{
    Program program;
    std::vector<std::uint8_t> groups;     //!< ascending source ids
    std::vector<std::size_t> globalIndex; //!< slice index -> source index
};

} // namespace morphling::compiler

#endif // MORPHLING_COMPILER_PROGRAM_H
