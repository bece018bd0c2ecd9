#include "program.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

namespace morphling::compiler {

std::uint64_t
Workload::totalBootstraps() const
{
    std::uint64_t total = 0;
    for (const auto &s : stages)
        total += s.bootstraps;
    return total;
}

std::uint64_t
Workload::totalLinearMacs() const
{
    std::uint64_t total = 0;
    for (const auto &s : stages)
        total += s.linearMacs;
    return total;
}

std::vector<Instruction>
Program::groupStream(std::uint8_t group) const
{
    std::vector<Instruction> out;
    for (const auto &inst : instrs_) {
        if (inst.group == group)
            out.push_back(inst);
    }
    return out;
}

unsigned
Program::numGroups() const
{
    unsigned groups = 0;
    for (const auto &inst : instrs_)
        groups = std::max<unsigned>(groups, inst.group + 1u);
    return groups;
}

ProgramSlice
Program::sliceGroups(const std::string &name,
                     const std::vector<std::uint8_t> &groups) const
{
    if (groups.empty())
        throw std::invalid_argument("sliceGroups with no groups");
    // Dense remap table: source group id -> slice-local id.
    std::array<int, 256> local;
    local.fill(-1);
    for (std::size_t i = 0; i < groups.size(); ++i) {
        if (i > 0 && groups[i] <= groups[i - 1]) {
            throw std::invalid_argument(
                "sliceGroups groups must be ascending and unique");
        }
        local[groups[i]] = static_cast<int>(i);
    }

    ProgramSlice slice;
    slice.program = Program(name);
    slice.groups = groups;
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
        const int remapped = local[instrs_[i].group];
        if (remapped < 0)
            continue;
        Instruction inst = instrs_[i];
        inst.group = static_cast<std::uint8_t>(remapped);
        slice.program.add(inst);
        slice.globalIndex.push_back(i);
    }
    return slice;
}

std::map<Opcode, std::uint64_t>
Program::histogram() const
{
    std::map<Opcode, std::uint64_t> out;
    for (const auto &inst : instrs_)
        ++out[inst.op];
    return out;
}

std::uint64_t
Program::totalBlindRotations() const
{
    std::uint64_t total = 0;
    for (const auto &inst : instrs_) {
        if (inst.op == Opcode::XpuBlindRotate)
            total += inst.count;
    }
    return total;
}

std::vector<std::uint64_t>
Program::serializeFramed() const
{
    std::vector<std::uint64_t> words;
    words.reserve(3 + instrs_.size());
    words.push_back(kFramedMagic);
    words.push_back(static_cast<std::uint64_t>(instrs_.size()));
    words.push_back(static_cast<std::uint64_t>(numGroups()));
    for (const auto &inst : instrs_)
        words.push_back(inst.encode());
    return words;
}

std::optional<Program>
Program::tryDeserializeFramed(const std::string &name,
                              const std::vector<std::uint64_t> &words,
                              std::string *error)
{
    const auto fail = [&](std::string message) -> std::optional<Program> {
        if (error != nullptr)
            *error = "program '" + name + "': " + std::move(message);
        return std::nullopt;
    };

    if (words.size() < 3)
        return fail("framed buffer of " + std::to_string(words.size()) +
                    " words is shorter than the 3-word header");
    if (words[0] != kFramedMagic)
        return fail("bad magic/version word");
    const std::uint64_t count = words[1];
    if (words.size() - 3 < count)
        return fail("truncated: header declares " +
                    std::to_string(count) + " instructions, buffer "
                    "holds " + std::to_string(words.size() - 3));
    if (words.size() - 3 > count)
        return fail("oversized: " +
                    std::to_string(words.size() - 3 - count) +
                    " trailing words after the declared " +
                    std::to_string(count) + " instructions");

    Program prog(name);
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto inst = Instruction::tryDecode(words[3 + i]);
        if (!inst) {
            return fail(
                "word " + std::to_string(i) +
                " has invalid opcode byte " +
                std::to_string((words[3 + i] >> 56) & 0xFF));
        }
        prog.add(*inst);
    }
    if (prog.numGroups() != words[2]) {
        return fail("group count mismatch: header declares " +
                    std::to_string(words[2]) + " groups, stream has " +
                    std::to_string(prog.numGroups()));
    }
    return prog;
}

std::string
Program::disassemble() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < instrs_.size(); ++i)
        oss << i << ": " << instrs_[i].toString() << '\n';
    return oss.str();
}

std::string
Program::disassembleByGroup() const
{
    std::ostringstream oss;
    for (unsigned g = 0; g < numGroups(); ++g) {
        oss << "group " << g << '\n';
        for (const auto &inst : instrs_) {
            if (inst.group == g)
                oss << "  " << inst.toString() << '\n';
        }
    }
    return oss.str();
}

} // namespace morphling::compiler
