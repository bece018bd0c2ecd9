/**
 * @file
 * Unit tests for the ISA encoding, program container and SW scheduler
 * (batching of 64 LWEs into 4 groups, dependent streams, barriers).
 */

#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "compiler/isa.h"
#include "compiler/program.h"
#include "compiler/sw_scheduler.h"
#include "compiler/verify.h"
#include "tfhe/params.h"

namespace morphling::compiler {
namespace {

TEST(Isa, EncodeDecodeRoundTrip)
{
    const Instruction cases[] = {
        {Opcode::DmaLoadLwe, 0, 16, 32064},
        {Opcode::VpuModSwitch, 3, 16, 0},
        {Opcode::XpuBlindRotate, 2, 16, 500},
        {Opcode::VpuPAlu, 1, 0, 0xFFFFFFFF},
        {Opcode::Barrier, 0, 0, 7},
    };
    for (const auto &inst : cases)
        EXPECT_EQ(Instruction::decode(inst.encode()), inst)
            << inst.toString();
}

TEST(Isa, OpcodeClassesArePartition)
{
    const Opcode all[] = {
        Opcode::DmaLoadLwe,   Opcode::DmaLoadBsk,
        Opcode::DmaLoadKsk,   Opcode::DmaLoadData,
        Opcode::DmaStoreLwe,  Opcode::VpuModSwitch,
        Opcode::VpuSampleExtract, Opcode::VpuKeySwitch,
        Opcode::VpuPAlu,      Opcode::XpuBlindRotate,
        Opcode::Barrier,
    };
    for (auto op : all) {
        const int classes = isDmaOp(op) + isVpuOp(op) + isXpuOp(op);
        if (op == Opcode::Barrier)
            EXPECT_EQ(classes, 0);
        else
            EXPECT_EQ(classes, 1) << opcodeName(op);
        EXPECT_FALSE(opcodeName(op).empty());
    }
}

TEST(Isa, TryDecodeIsTotalOverRandomWords)
{
    // Property fuzz over the full 64-bit word space: every word either
    // decodes to an instruction that re-encodes to the identical word,
    // or is rejected — deterministically, never UB. The opcode byte is
    // drawn uniformly, so both outcomes are exercised heavily.
    std::mt19937_64 rng(0xD15A55E3B1Eull);
    std::size_t valid = 0, rejected = 0;
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t word = rng();
        const auto inst = Instruction::tryDecode(word);
        const auto op_byte =
            static_cast<std::uint8_t>((word >> 56) & 0xFF);
        ASSERT_EQ(inst.has_value(), isValidOpcodeByte(op_byte))
            << "word " << word;
        if (inst) {
            // Lossless: the four fields partition all 64 bits.
            EXPECT_EQ(inst->encode(), word);
            EXPECT_EQ(Instruction::decode(word), *inst);
            ++valid;
        } else {
            // Rejection is deterministic.
            EXPECT_FALSE(Instruction::tryDecode(word).has_value());
            ++rejected;
        }
    }
    EXPECT_GT(valid, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(Isa, ValidOpcodeBytesAreExactlyTheEnum)
{
    for (unsigned b = 0; b < 256; ++b)
        EXPECT_EQ(isValidOpcodeByte(static_cast<std::uint8_t>(b)),
                  b < kOpcodeCount)
            << "byte " << b;
}

TEST(IsaDeathTest, DecodeRejectsInvalidOpcodeByte)
{
    const std::uint64_t word = 0xFFull << 56;
    ASSERT_FALSE(Instruction::tryDecode(word).has_value());
    EXPECT_DEATH((void)Instruction::decode(word), "invalid opcode");
}

TEST(Program, FramedSerializeRoundTrip)
{
    Program prog("framed");
    prog.add({Opcode::DmaLoadLwe, 0, 16, 123});
    prog.add({Opcode::XpuBlindRotate, 0, 16, 500});
    prog.add({Opcode::VpuKeySwitch, 1, 16, 0});
    const auto words = prog.serializeFramed();
    ASSERT_EQ(words.size(), prog.size() + 3);
    EXPECT_EQ(words[0], Program::kFramedMagic);
    EXPECT_EQ(words[1], prog.size());
    EXPECT_EQ(words[2], prog.numGroups());

    std::string error;
    const auto back =
        Program::tryDeserializeFramed("framed", words, &error);
    ASSERT_TRUE(back.has_value()) << error;
    ASSERT_EQ(back->size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(back->at(i), prog.at(i));
    EXPECT_EQ(back->numGroups(), prog.numGroups());
}

TEST(Program, FramedDecodeRejectsTruncatedBuffer)
{
    Program prog("p");
    prog.add({Opcode::DmaLoadLwe, 0, 4, 1});
    prog.add({Opcode::XpuBlindRotate, 0, 4, 500});
    auto words = prog.serializeFramed();

    // Shorter than the header itself.
    std::string error;
    EXPECT_FALSE(Program::tryDeserializeFramed(
                     "p", {words[0], words[1]}, &error)
                     .has_value());
    EXPECT_NE(error.find("header"), std::string::npos);

    // Header intact, instruction words cut off.
    auto truncated = words;
    truncated.pop_back();
    EXPECT_FALSE(
        Program::tryDeserializeFramed("p", truncated, &error)
            .has_value());
    EXPECT_NE(error.find("truncated"), std::string::npos);

    // Trailing garbage after the declared count.
    auto oversized = words;
    oversized.push_back(0);
    EXPECT_FALSE(
        Program::tryDeserializeFramed("p", oversized, &error)
            .has_value());
    EXPECT_NE(error.find("oversized"), std::string::npos);
}

TEST(Program, FramedDecodeRejectsBadMagicAndOpcode)
{
    Program prog("p");
    prog.add({Opcode::DmaLoadLwe, 0, 4, 1});
    const auto words = prog.serializeFramed();

    auto bad_magic = words;
    bad_magic[0] ^= 1;
    std::string error;
    EXPECT_FALSE(
        Program::tryDeserializeFramed("p", bad_magic, &error)
            .has_value());
    EXPECT_NE(error.find("magic"), std::string::npos);

    auto bad_opcode = words;
    bad_opcode[3] = 0xABull << 56;
    EXPECT_FALSE(
        Program::tryDeserializeFramed("p", bad_opcode, &error)
            .has_value());
    EXPECT_NE(error.find("invalid opcode"), std::string::npos);
}

TEST(Program, FramedDecodeRejectsGroupCountMismatch)
{
    Program prog("p");
    prog.add({Opcode::VpuModSwitch, 0, 1, 0});
    prog.add({Opcode::VpuModSwitch, 3, 1, 0});
    auto words = prog.serializeFramed();
    ASSERT_EQ(words[2], 4u);
    words[2] = 2; // header lies about the group count
    std::string error;
    EXPECT_FALSE(Program::tryDeserializeFramed("p", words, &error)
                     .has_value());
    EXPECT_NE(error.find("group count mismatch"), std::string::npos);
}

TEST(Program, SliceGroupsRemapsDensely)
{
    Program prog("p");
    prog.add({Opcode::VpuModSwitch, 0, 1, 0});
    prog.add({Opcode::VpuModSwitch, 2, 2, 0});
    prog.add({Opcode::VpuModSwitch, 3, 3, 0});
    prog.add({Opcode::VpuKeySwitch, 2, 4, 0});
    const auto slice = prog.sliceGroups("odd", {2, 3});
    ASSERT_EQ(slice.program.size(), 3u);
    EXPECT_EQ(slice.program.numGroups(), 2u);
    EXPECT_EQ(slice.program.at(0).group, 0u); // source group 2
    EXPECT_EQ(slice.program.at(1).group, 1u); // source group 3
    EXPECT_EQ(slice.program.at(2).group, 0u);
    EXPECT_EQ(slice.globalIndex,
              (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Program, SliceGroupsRejectsEmptyOrUnsortedGroups)
{
    Program prog("p");
    prog.add({Opcode::VpuModSwitch, 0, 1, 0});
    EXPECT_THROW(prog.sliceGroups("none", {}), std::invalid_argument);
    EXPECT_THROW(prog.sliceGroups("unsorted", {2, 1}),
                 std::invalid_argument);
    EXPECT_THROW(prog.sliceGroups("duplicate", {1, 1}),
                 std::invalid_argument);
}

TEST(Program, GroupStreamFilters)
{
    Program prog("p");
    prog.add({Opcode::VpuModSwitch, 0, 1, 0});
    prog.add({Opcode::VpuModSwitch, 1, 2, 0});
    prog.add({Opcode::VpuKeySwitch, 0, 3, 0});
    const auto g0 = prog.groupStream(0);
    ASSERT_EQ(g0.size(), 2u);
    EXPECT_EQ(g0[1].count, 3u);
}

class SchedulerFixture : public ::testing::Test
{
  protected:
    const tfhe::TfheParams &params = tfhe::paramsSetI();
    SwScheduler scheduler{params};
};

TEST(SchedulerConfigCheck, DegenerateGeometryThrows)
{
    const auto &params = tfhe::paramsTest();
    const auto build = [&](const SchedulerConfig &config) {
        SwScheduler scheduler(params, config);
    };
    SchedulerConfig zero_size;
    zero_size.groupSize = 0;
    EXPECT_THROW(build(zero_size), std::invalid_argument);
    SchedulerConfig zero_groups;
    zero_groups.numGroups = 0;
    EXPECT_THROW(build(zero_groups), std::invalid_argument);
    SchedulerConfig too_many;
    too_many.numGroups = 17;
    EXPECT_THROW(build(too_many), std::invalid_argument);
    SchedulerConfig no_reuse;
    no_reuse.kskReuse = 0;
    EXPECT_THROW(build(no_reuse), std::invalid_argument);
    SchedulerConfig widest;
    widest.numGroups = 16;
    EXPECT_NO_THROW(build(widest));
}

TEST_F(SchedulerFixture, BatchCoversAllCiphertexts)
{
    const Program prog = scheduler.scheduleBootstrapBatch(200);
    EXPECT_EQ(prog.totalBlindRotations(), 200u);
    // Every bootstrap chunk carries the full dependent stream.
    const auto hist = prog.histogram();
    EXPECT_EQ(hist.at(Opcode::VpuModSwitch),
              hist.at(Opcode::XpuBlindRotate));
    EXPECT_EQ(hist.at(Opcode::VpuSampleExtract),
              hist.at(Opcode::XpuBlindRotate));
    EXPECT_EQ(hist.at(Opcode::VpuKeySwitch),
              hist.at(Opcode::XpuBlindRotate));
}

TEST_F(SchedulerFixture, ChunksAreGroupSized)
{
    const Program prog = scheduler.scheduleBootstrapBatch(64);
    unsigned chunks = 0;
    for (const auto &inst : prog.instructions()) {
        if (inst.op == Opcode::XpuBlindRotate) {
            EXPECT_EQ(inst.count, 16u);
            EXPECT_EQ(inst.operand, params.lweDimension);
            ++chunks;
        }
    }
    EXPECT_EQ(chunks, 4u);
}

TEST_F(SchedulerFixture, GroupsRoundRobin)
{
    const Program prog = scheduler.scheduleBootstrapBatch(128);
    // 8 chunks of 16 -> two per group.
    for (std::uint8_t g = 0; g < 4; ++g) {
        unsigned brs = 0;
        for (const auto &inst : prog.groupStream(g))
            brs += inst.op == Opcode::XpuBlindRotate;
        EXPECT_EQ(brs, 2u) << "group " << int(g);
    }
}

TEST_F(SchedulerFixture, GroupInterleavedMatchesRoundRobinOnCanonical)
{
    // On the canonical superbatch (64 LWEs, 4 groups of 16) one round
    // of equal chunks IS the round-robin emission — the interleaved
    // mode must produce a byte-identical program, so everything
    // derived from the canonical schedule (goldens, Table V rows) is
    // unchanged.
    SchedulerConfig ileave;
    ileave.interleave = InterleaveMode::kGroupInterleaved;
    const Program rr = scheduler.scheduleBootstrapBatch(64);
    const Program gi =
        SwScheduler(params, ileave).scheduleBootstrapBatch(64);
    ASSERT_EQ(gi.size(), rr.size());
    for (std::size_t i = 0; i < rr.size(); ++i)
        EXPECT_EQ(gi.at(i), rr.at(i)) << i;
    EXPECT_EQ(gi.serializeFramed(), rr.serializeFramed());
}

TEST_F(SchedulerFixture, GroupInterleavedEmitsPhaseAlignedRounds)
{
    // 70 LWEs over 4 groups: the interleaved mode balances the tail
    // round (18,18,17,17 -> chunks 16+2/16+2/16+1/16+1 across two
    // rounds of 16,16,16,16 then 2,2,1,1) instead of round-robin's
    // 16,16,16,16,6 — every group stays within one chunk of the
    // others, so shards sliced from the groups stay phase-aligned.
    SchedulerConfig ileave;
    ileave.interleave = InterleaveMode::kGroupInterleaved;
    const Program prog =
        SwScheduler(params, ileave).scheduleBootstrapBatch(70);
    EXPECT_EQ(prog.totalBlindRotations(), 70u);
    std::vector<std::vector<unsigned>> rounds(4);
    for (const auto &inst : prog.instructions()) {
        if (inst.op == Opcode::XpuBlindRotate)
            rounds[inst.group].push_back(inst.count);
    }
    // Same number of chunks in every group's stream.
    for (std::uint8_t g = 1; g < 4; ++g)
        EXPECT_EQ(rounds[g].size(), rounds[0].size()) << int(g);
    ASSERT_EQ(rounds[0].size(), 2u);
    EXPECT_EQ(rounds[0][0], 16u);
    EXPECT_EQ(rounds[0][1], 2u);
    EXPECT_EQ(rounds[2][1], 1u);
    // Within a round, chunk sizes differ by at most one.
    for (std::size_t r = 0; r < 2; ++r) {
        unsigned lo = ~0u, hi = 0;
        for (std::uint8_t g = 0; g < 4; ++g) {
            lo = std::min(lo, rounds[g][r]);
            hi = std::max(hi, rounds[g][r]);
        }
        EXPECT_LE(hi - lo, 1u) << "round " << r;
    }
}

TEST_F(SchedulerFixture, PartialTailChunk)
{
    const Program prog = scheduler.scheduleBootstrapBatch(70);
    std::vector<unsigned> counts;
    for (const auto &inst : prog.instructions()) {
        if (inst.op == Opcode::XpuBlindRotate)
            counts.push_back(inst.count);
    }
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_EQ(counts.back(), 6u); // 70 = 4*16 + 6
}

TEST_F(SchedulerFixture, KskTrafficIsAmortized)
{
    const Program prog = scheduler.scheduleBootstrapBatch(64);
    for (const auto &inst : prog.instructions()) {
        if (inst.op == Opcode::DmaLoadKsk) {
            // 16 ciphertexts amortized over 64 -> one quarter of the
            // KSK per chunk.
            EXPECT_EQ(inst.operand, params.kskBytes() * 16 / 64);
        }
    }
}

TEST_F(SchedulerFixture, StagesSeparatedByBarriers)
{
    Workload w;
    w.name = "two-layer";
    w.stages.push_back({64, 1000});
    w.stages.push_back({64, 0});
    const Program prog = scheduler.schedule(w);

    const auto hist = prog.histogram();
    // One barrier per group at the single stage boundary.
    EXPECT_EQ(hist.at(Opcode::Barrier), 4u);
    EXPECT_EQ(prog.totalBlindRotations(), 128u);
    EXPECT_GE(hist.at(Opcode::VpuPAlu), 1u);

    // Barriers must appear after every stage-1 blind rotate and before
    // every stage-2 one, per group.
    for (std::uint8_t g = 0; g < 4; ++g) {
        const auto stream = prog.groupStream(g);
        bool seen_barrier = false;
        unsigned before = 0, after = 0;
        for (const auto &inst : stream) {
            if (inst.op == Opcode::Barrier)
                seen_barrier = true;
            else if (inst.op == Opcode::XpuBlindRotate)
                (seen_barrier ? after : before) += 1;
        }
        EXPECT_TRUE(seen_barrier);
        EXPECT_GT(before, 0u);
        EXPECT_GT(after, 0u);
    }
}

TEST_F(SchedulerFixture, BskBytesMatchTransformFormat)
{
    // (k+1) l_b (k+1) polys of N/2 complex64 = 8 * 512 * 8 bytes.
    EXPECT_EQ(scheduler.bskBytesPerIteration(), 8ull * 512 * 8);
}

TEST_F(SchedulerFixture, SuperbatchDisassemblyMatchesGolden)
{
    // The canonical 64-LWE superbatch, disassembled group by group and
    // diffed against a checked-in golden file. A diff means either the
    // scheduler's emission or the disassembly format changed — both are
    // contracts other layers (backends, the co-simulator, humans
    // reading traces) depend on; regenerate the golden only for an
    // intentional change.
    const Program prog = scheduler.scheduleBootstrapBatch(64);
    EXPECT_EQ(prog.numGroups(), 4u);
    const std::string disasm = prog.disassembleByGroup();

    const std::string path =
        std::string(MORPHLING_TEST_DATA_DIR) + "/superbatch64.disasm";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(disasm, golden.str());
}

TEST(Program, NumGroups)
{
    Program prog("p");
    EXPECT_EQ(prog.numGroups(), 0u);
    prog.add({Opcode::VpuModSwitch, 0, 1, 0});
    EXPECT_EQ(prog.numGroups(), 1u);
    prog.add({Opcode::VpuModSwitch, 2, 1, 0});
    EXPECT_EQ(prog.numGroups(), 3u);
}

class VerifierFixture : public ::testing::Test
{
  protected:
    const tfhe::TfheParams &params = tfhe::paramsTest();

    /** One chunk of `count` LWEs in group 0: instructions 0..7. */
    Program
    batch(std::uint64_t count) const
    {
        return SwScheduler(params).scheduleBootstrapBatch(count);
    }

    /** Two stages of two bootstraps over two groups of one: chunks at
     *  0 (g0) and 8 (g1), barriers 16 (g0) and 17 (g1), chunks at 18
     *  (g0) and 26 (g1). */
    Program
    twoStages() const
    {
        SchedulerConfig config;
        config.groupSize = 1;
        config.numGroups = 2;
        Workload w;
        w.name = "two-stage";
        w.stages = {{2, 0}, {2, 0}};
        return SwScheduler(params, config).schedule(w);
    }

    /** `program` with its instruction list edited. */
    static Program
    edited(const Program &program,
           const std::function<void(std::vector<Instruction> &)> &edit)
    {
        std::vector<Instruction> instrs = program.instructions();
        edit(instrs);
        Program out(program.name());
        for (const auto &inst : instrs)
            out.add(inst);
        return out;
    }

    /** verify()'s diagnostic for a program that must not verify. */
    std::string
    rejection(const Program &program) const
    {
        std::string error;
        EXPECT_FALSE(verify(program, params, &error).has_value());
        EXPECT_THROW(verifyOrThrow(program, params), std::invalid_argument);
        return error;
    }
};

TEST_F(VerifierFixture, PlanIsTheSchedulersChunkCarving)
{
    // 40 LWEs over 4 groups of 16: chunks of 16, 16 and 8 in program
    // order, slots assigned by a flat DMA.LD_LWE cursor.
    const Program prog = batch(40);
    const auto plan = verify(prog, params);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->slots, 40u);
    ASSERT_EQ(plan->chunks.size(), 3u);
    const std::size_t firsts[] = {0, 16, 32};
    const unsigned counts[] = {16, 16, 8};
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(plan->chunks[c].slotBegin, firsts[c]);
        EXPECT_EQ(plan->chunks[c].count, counts[c]);
    }
    ASSERT_EQ(plan->chunkOf.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(plan->chunkOf[i], static_cast<int>(i / 8));

    // Barriers and linear work sit outside every chunk.
    Workload w;
    w.name = "mixed";
    w.stages = {{3, 100}, {5, 0}};
    const Program mixed = SwScheduler(params).schedule(w);
    const auto mixed_plan = verify(mixed, params);
    ASSERT_TRUE(mixed_plan.has_value());
    EXPECT_EQ(mixed_plan->slots, 8u);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        const Opcode op = mixed.at(i).op;
        const bool outside = op == Opcode::Barrier ||
                             op == Opcode::DmaLoadData ||
                             op == Opcode::VpuPAlu;
        EXPECT_EQ(mixed_plan->chunkOf[i] < 0, outside) << i;
    }
}

TEST_F(VerifierFixture, EmptyProgramVerifiesWithNoSlots)
{
    const auto plan = verify(Program("empty"), params);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->slots, 0u);
    EXPECT_TRUE(plan->chunks.empty());
}

/** One hand-written rejection per grammar rule; each diagnostic names
 *  the offending instruction's index. */
TEST_F(VerifierFixture, RejectsEachGrammarRule)
{
    const auto expectNames = [](const std::string &error,
                                const std::string &what) {
        EXPECT_NE(error.find(what), std::string::npos) << error;
    };

    // Outside a chunk only LD_LWE, LD_DATA, PALU and BAR may issue.
    expectNames(rejection(edited(batch(4),
                                 [](auto &v) { v.erase(v.begin()); })),
                "instruction 0 (VPU.MS");
    // LD_LWE opens a chunk of at least one slot.
    expectNames(rejection(edited(batch(4),
                                 [](auto &v) { v[0].count = 0; })),
                "instruction 0 (DMA.LD_LWE");
    // Inside a chunk the next instruction is the next stage: no
    // LD_BSK before MS, no LD_DATA (or PALU, or BAR) mid-chunk.
    expectNames(rejection(edited(batch(4),
                                 [](auto &v) { v.erase(v.begin() + 1); })),
                "instruction 1 (DMA.LD_BSK");
    expectNames(rejection(edited(batch(4),
                                 [](auto &v) {
                                     v.insert(v.begin() + 3,
                                              Instruction{Opcode::DmaLoadData,
                                                          0, 0, 64});
                                 })),
                "instruction 3 (DMA.LD_DATA");
    // ... with the chunk head's count.
    expectNames(rejection(edited(batch(4),
                                 [](auto &v) { v[4].count = 3; })),
                "instruction 4 (VPU.SE");
    // XPU.BR runs n rounds.
    expectNames(rejection(edited(batch(4),
                                 [this](auto &v) {
                                     v[3].operand = params.lweDimension - 1;
                                 })),
                "instruction 3 (XPU.BR");
    // No group ends inside a chunk.
    expectNames(rejection(edited(batch(4),
                                 [](auto &v) { v.resize(5); })),
                "group 0 ends inside the chunk opened at instruction 0");

    // Every group meets the same barrier ids in the same order.
    ASSERT_TRUE(verify(twoStages(), params).has_value());
    expectNames(rejection(edited(twoStages(),
                                 [](auto &v) { v[17].operand = 7; })),
                "instruction 17 (CTRL.BAR g1");
    expectNames(rejection(edited(twoStages(),
                                 [](auto &v) { v.erase(v.begin() + 17); })),
                "group 1 has no barrier to meet instruction 16");
    expectNames(rejection(edited(twoStages(),
                                 [](auto &v) { v.erase(v.begin() + 16); })),
                "instruction 16 (CTRL.BAR g1");
    // A group id without instructions meets no barrier at all.
    expectNames(rejection(edited(twoStages(),
                                 [](auto &v) {
                                     for (auto &inst : v) {
                                         if (inst.group == 1)
                                             inst.group = 2;
                                     }
                                 })),
                "group 1 has no barrier to meet instruction 16");
}

TEST(Workload, Totals)
{
    Workload w;
    w.stages.push_back({10, 100});
    w.stages.push_back({20, 200});
    EXPECT_EQ(w.totalBootstraps(), 30u);
    EXPECT_EQ(w.totalLinearMacs(), 300u);
}

} // namespace
} // namespace morphling::compiler
