/**
 * @file
 * The functional execution backend: interprets a compiled Program
 * against real LWE ciphertexts.
 *
 * DMA instructions move ciphertext/key data through modeled per-chunk
 * staging buffers, VPU instructions run the library's mod-switch /
 * sample-extract / key-switch stages, and XpuBlindRotate runs a real
 * blind rotation. Because each chunk executes the exact stage sequence
 * of tfhe::bootstrapInto (mod-switch -> workspace blind rotation ->
 * sample extraction -> key switching), the outputs are bit-identical
 * to the library reference — the property the co-simulator asserts.
 *
 * run() walks the program one barrier-delimited segment at a time:
 * the groups with work before their next barrier run to it (in
 * parallel at Job::options.threads > 1, inline otherwise), then the
 * barrier retires for every group. The log lists each segment's groups
 * in ascending id, each in program order, then the segment's barrier
 * retirements in group order — one order at every thread count, and
 * the order ShardedBackend merges its timing shards into.
 *
 * The backend doubles as an IR validity checker: a stream that loads a
 * chunk twice, rotates before mod-switching, stores before
 * key-switching, or whose DMA.LD_LWE totals disagree with its XPU.BR
 * totals panics instead of silently computing garbage.
 */

#ifndef MORPHLING_EXEC_FUNCTIONAL_BACKEND_H
#define MORPHLING_EXEC_FUNCTIONAL_BACKEND_H

#include <cstdint>
#include <vector>

#include "exec/backend.h"
#include "tfhe/bootstrap.h"
#include "tfhe/keyset.h"
#include "tfhe/serialize.h"
#include "tfhe/workspace.h"

namespace morphling::exec {

/**
 * Interprets Programs against real ciphertexts. Holds references to
 * the key material — the keys must outlive the backend.
 */
class FunctionalBackend final : public ExecutionBackend
{
  public:
    explicit FunctionalBackend(const tfhe::EvaluationKeys &keys);
    explicit FunctionalBackend(const tfhe::KeySet &keys);

    std::string_view name() const override { return "functional"; }

    /** Outputs and retirement log are byte-equal at every thread
     *  count (0 = hardware concurrency). */
    ExecutionResult run(const compiler::Program &program,
                        const Job &job) override;

  private:
    /** Pipeline state of one LD_LWE..ST_LWE chunk. The booleans track
     *  stage progress so malformed streams panic. */
    struct Chunk
    {
        std::size_t slotBegin = 0; //!< first input/output slot covered
        unsigned count = 0;
        bool staged = false;
        bool modSwitched = false;
        bool bskArmed = false;
        bool rotated = false;
        bool extracted = false;
        bool kskLoaded = false;
        bool keySwitched = false;
        bool stored = false;
        std::vector<tfhe::LweCiphertext> staging; //!< DMA'd inputs
        std::vector<std::vector<std::uint32_t>> switched;
        std::vector<tfhe::GlweCiphertext> accs;
        std::vector<tfhe::LweCiphertext> extractedCts;
        std::vector<tfhe::LweCiphertext> results;
    };

    /** One program instruction with its chunk binding (-1 for ops that
     *  carry no chunk data: barriers, LD_DATA, PALU). */
    struct InstrRef
    {
        std::size_t index = 0;
        int chunk = -1;
    };

    struct Group
    {
        std::vector<InstrRef> stream; //!< program order
        std::size_t pc = 0;
    };

    void reset();
    void bindProgram(const compiler::Program &program, const Job &job);
    void execute(const InstrRef &ref, tfhe::BootstrapWorkspace &ws);
    /** All unfinished groups sit at the same barrier: retire it for
     *  every group and advance past it. */
    void releaseBarrier();
    void runSegments(unsigned threads);
    bool allFinished() const;

    const tfhe::TfheParams &params_;
    const tfhe::BootstrapKey &bsk_;
    const tfhe::KeySwitchKey &ksk_;

    const compiler::Program *program_ = nullptr;
    const std::vector<tfhe::LweCiphertext> *inputs_ = nullptr;
    tfhe::TorusPolynomial testPoly_;
    std::vector<Chunk> chunks_;
    std::vector<Group> groups_;
    std::vector<tfhe::LweCiphertext> outputs_;
    std::vector<RetiredInstruction> log_;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_FUNCTIONAL_BACKEND_H
