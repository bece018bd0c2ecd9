/**
 * @file
 * Look inside the SW scheduler (Figure 6): compile a small workload,
 * print the instruction-stream disassembly per scheduling group, the
 * opcode histogram, and the framed machine encoding (decoded back and
 * compared) — then run it on the simulator.
 *
 * Usage:  ./build/examples/inspect_program [BOOTSTRAPS]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "arch/accelerator.h"
#include "common/table.h"
#include "compiler/sw_scheduler.h"

using namespace morphling;
using namespace morphling::compiler;

int
main(int argc, char **argv)
{
    const std::uint64_t count =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 48;

    const auto &params = tfhe::paramsSetI();
    SwScheduler scheduler(params);

    // A two-stage workload: a linear layer feeding a batch of
    // bootstraps (dependent stages -> barrier).
    Workload w;
    w.name = "inspect-demo";
    w.stages.push_back({count, 100000});
    w.stages.push_back({count / 2, 0});
    const Program program = scheduler.schedule(w);

    std::cout << "workload '" << w.name << "': "
              << w.totalBootstraps() << " bootstraps, "
              << w.totalLinearMacs() << " MACs -> " << program.size()
              << " instructions\n\n";

    // Per-group streams.
    for (std::uint8_t g = 0; g < 4; ++g) {
        const auto stream = program.groupStream(g);
        std::cout << "group " << int(g) << " stream (" << stream.size()
                  << " instructions):\n";
        for (const auto &inst : stream)
            std::cout << "    " << inst.toString() << "\n";
    }

    // Opcode histogram.
    std::cout << "\nopcode histogram:\n";
    Table t({"Opcode", "Count"});
    for (const auto &[op, n] : program.histogram())
        t.addRow({opcodeName(op), std::to_string(n)});
    t.print(std::cout);

    // Machine encoding round trip: the framed container the remote
    // protocol ships, decoded back without trusting it.
    const auto words = program.serializeFramed();
    std::cout << "framed: " << words.size() * 8
              << " bytes (3 header words); first words:";
    for (std::size_t i = 0; i < std::min<std::size_t>(4, words.size());
         ++i)
        std::cout << " 0x" << std::hex << words[i] << std::dec;
    std::string error;
    const auto decoded =
        Program::tryDeserializeFramed(program.name(), words, &error);
    if (!decoded || decoded->instructions() != program.instructions()) {
        std::cerr << "framed round trip failed: " << error << "\n";
        return 1;
    }
    std::cout << "\nround trip: " << decoded->size()
              << " instructions decoded, identical\n\n";

    // Execute.
    arch::Accelerator acc(arch::ArchConfig::morphlingDefault(), params);
    const auto r = acc.run(program);
    std::cout << "simulated: " << r.cycles << " cycles ("
              << r.seconds * 1e6 << " us), " << r.bootstraps
              << " bootstraps, XPU busy "
              << Table::fmt(100 * r.xpuBusyFrac, 1) << "%\n";
    return 0;
}
