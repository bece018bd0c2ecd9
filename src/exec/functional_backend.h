/**
 * @file
 * The functional execution backend: interprets a compiled Program
 * against real LWE ciphertexts.
 *
 * run() first verifies the program (compiler::verify) and checks the
 * job against its plan (validateJob), and throws std::invalid_argument
 * with the diagnostic on either failure; it then runs from the plan,
 * which names each instruction's chunk and each chunk's slots. The VPU
 * instructions run the library's mod-switch / sample-extract /
 * key-switch stages, XPU.BR runs a real blind rotation and DMA.ST_LWE
 * writes the chunk's results to its output slots; the other DMA
 * instructions and VPU.PALU carry no ciphertext data (the Program
 * encodes byte and MAC volumes, not operand bindings). Because each
 * chunk executes the exact stage sequence of tfhe::bootstrapInto
 * (mod-switch -> workspace blind rotation -> sample extraction -> key
 * switching), the outputs are bit-identical to the library reference —
 * the property the co-simulator asserts.
 *
 * run() walks the program one barrier-delimited segment at a time:
 * every group runs to its next barrier (in parallel at
 * Job::options.threads > 1, inline otherwise), then the barrier
 * retires for every group. The log lists each segment's groups in
 * ascending id, each in program order, then the segment's barrier
 * retirements in group order — one order at every thread count, and
 * the order ShardedBackend merges its timing shards into.
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
     *  count (0 = hardware concurrency). Throws std::invalid_argument
     *  when the program does not verify or the job does not fit it. */
    ExecutionResult run(const compiler::Program &program,
                        const Job &job) override;

  private:
    /** One group's instruction stream, and its open chunk's data
     *  between pipeline stages (a group runs one chunk at a time). */
    struct Group
    {
        std::vector<std::size_t> stream; //!< instruction indices
        std::size_t pc = 0;
        std::vector<std::vector<std::uint32_t>> switched;
        std::vector<tfhe::GlweCiphertext> accs;
        std::vector<tfhe::LweCiphertext> extracted;
        std::vector<tfhe::LweCiphertext> results;
    };

    void execute(std::size_t index, Group &group,
                 tfhe::BootstrapWorkspace &ws);
    /** Run every group up to its next barrier or its end. */
    void runSegment(unsigned threads);

    const tfhe::TfheParams &params_;
    const tfhe::BootstrapKey &bsk_;
    const tfhe::KeySwitchKey &ksk_;

    // State of the run() in progress.
    const compiler::Program *program_ = nullptr;
    const std::vector<tfhe::LweCiphertext> *inputs_ = nullptr;
    compiler::ProgramPlan plan_;
    tfhe::TorusPolynomial testPoly_;
    std::vector<Group> groups_;
    std::vector<tfhe::LweCiphertext> outputs_;
    std::vector<RetiredInstruction> log_;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_FUNCTIONAL_BACKEND_H
