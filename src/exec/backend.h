/**
 * @file
 * Pluggable execution backends over the compiled instruction stream.
 *
 * The compiled compiler::Program is the single artifact every layer
 * consumes (docs/execution_model.md): the same stream that drives the
 * cycle model can be interpreted against real ciphertexts. An
 * ExecutionBackend runs a whole Program and returns its complete
 * ExecutionResult — FunctionalBackend computes real TFHE data,
 * TimingBackend runs the arch::Accelerator cycle model, and cosim.h
 * cross-checks the two complete results so that one IR means one
 * behaviour.
 *
 * Retirement contract shared by all backends: the result's log retires
 * every program instruction exactly once, and instructions of the same
 * group retire in program order (groups may interleave; the
 * interleaving is backend-specific but deterministic).
 */

#ifndef MORPHLING_EXEC_BACKEND_H
#define MORPHLING_EXEC_BACKEND_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/accelerator.h"
#include "compiler/program.h"
#include "compiler/verify.h"
#include "tfhe/batch.h"
#include "tfhe/lwe.h"
#include "tfhe/serialize.h"

namespace morphling::exec {

/** Which backend executes a program (e.g. the service's
 *  ServiceConfig::backend knob). */
enum class BackendKind
{
    kFunctional, //!< interpret against real ciphertexts
    kTiming,     //!< cycle model only, no data
    /** Functional + timing over the same program, cross-checked
     *  (exec::CosimBackend); throws exec::CosimError on divergence. */
    kCosim,
    /** Execute on a RemoteServer over TCP (exec::RemoteBackend):
     *  the program, ciphertexts and LUT ship over the wire and the
     *  outputs and retirement log come back in one result frame.
     *  Configured by BackendSpec::remote. */
    kRemote
};

/** Stable name for logs and config dumps. */
const char *backendKindName(BackendKind kind);

/** One retired instruction of a backend's retirement log. */
struct RetiredInstruction
{
    std::size_t index = 0;      //!< position in Program::instructions()
    compiler::Instruction inst; //!< the instruction itself
    std::uint64_t seq = 0;      //!< backend-local retirement sequence
    /** Virtual completion time. Simulator ticks for the timing
     *  backend; 0 for the functional backend (untimed). */
    std::uint64_t tick = 0;
};

/**
 * The single submission type every backend (and the service) accepts:
 * the data a program executes against. The timing backend ignores the
 * ciphertexts; the functional backend requires inputs/lut whenever the
 * program performs blind rotations. Pointees must outlive the run.
 *
 * Build one through the batch()/sign() factories below rather than by
 * assigning fields — they encode the two LUT modes correctly.
 */
struct Job
{
    /** One input LWE ciphertext per blind-rotation slot; size must
     *  equal Program::totalBlindRotations(). */
    const std::vector<tfhe::LweCiphertext> *inputs = nullptr;

    /** The LUT every bootstrap in the program evaluates. In sign mode
     *  (signLut below) it holds exactly one entry: mu. */
    const std::vector<tfhe::Torus32> *lut = nullptr;

    /** When true, blind rotations use the constant sign test
     *  polynomial tfhe::constantTestPolynomial(N, (*lut)[0]) — gate
     *  bootstrapping, mapping every ciphertext to +-mu by phase sign —
     *  instead of the padded staircase tfhe::buildTestPolynomial
     *  derives from a message LUT. The two are distinct test-vector
     *  families: no staircase LUT can express the constant polynomial
     *  (its top half-slot is pinned to -lut[0]). */
    bool signLut = false;

    /** Execution knobs (threads within the batch, noise audit). */
    tfhe::BatchOptions options;

    /** A programmable-bootstrap job: every input evaluated through the
     *  padded staircase LUT. */
    static Job batch(const std::vector<tfhe::LweCiphertext> &inputs,
                     const std::vector<tfhe::Torus32> &lut,
                     tfhe::BatchOptions options = {});

    /** A gate-bootstrap job: every input sign-bootstrapped to +-mu,
     *  where `mu` is a one-entry vector owned by the caller (kept as a
     *  vector so Job stays non-owning and uniform). */
    static Job sign(const std::vector<tfhe::LweCiphertext> &inputs,
                    const std::vector<tfhe::Torus32> &mu,
                    tfhe::BatchOptions options = {});
};

/**
 * The one check of a Job's shape against a verified Program's plan
 * (compiler::verify): the input count equals the plan's slot count,
 * every input has the keys' LWE dimension n, a plan with slots has a
 * LUT, a sign job's LUT holds exactly one entry (mu), and any other
 * job's LUT fits the test polynomial (2 * |lut| <= N). Returns the
 * diagnostic, or nullopt when the job fits. FunctionalBackend::run
 * throws it as std::invalid_argument; RemoteServer answers it with
 * kBadProgram.
 */
std::optional<std::string> validateJob(const compiler::ProgramPlan &plan,
                                       const Job &job,
                                       const tfhe::TfheParams &params);

/** What one backend produced over one program execution. */
struct ExecutionResult
{
    std::string_view backend; //!< name() of the producing backend

    /** Key-switched result ciphertexts, one per blind-rotation slot
     *  (functional backends only; see hasOutputs). */
    std::vector<tfhe::LweCiphertext> outputs;
    bool hasOutputs = false;

    /** Cycle-model report (timing backends only; see hasReport). */
    arch::SimReport report;
    bool hasReport = false;

    /** Full retirement log in retirement order. */
    std::vector<RetiredInstruction> retired;
};

/**
 * A machine that executes compiled Programs: run() executes one whole
 * program and returns its complete result, using whatever internal
 * parallelism the backend supports.
 *
 * Backends are single-driver objects: do not call run() on one backend
 * from several threads at once. A backend may run any number of
 * programs in turn.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    virtual std::string_view name() const = 0;

    /** Execute `program` against `job`'s data. */
    virtual ExecutionResult run(const compiler::Program &program,
                                const Job &job) = 0;
};

/**
 * How a RemoteBackend reaches its RemoteServer and how hard it tries.
 * Lives here (rather than remote_backend.h) so BackendSpec — and
 * through it ServiceConfig — can carry it without pulling in the
 * transport headers.
 */
struct RemoteClientConfig
{
    std::string host = "127.0.0.1";

    /** Server TCP port; RemoteBackend throws std::invalid_argument on
     *  0. */
    std::uint16_t port = 0;

    /** Per-request deadline covering connect, send, execution and the
     *  full response stream — including retries; a request never
     *  outlives it. */
    std::chrono::milliseconds requestTimeout{60000};

    /** Bound on one TCP connect attempt (also clipped by the request
     *  deadline). */
    std::chrono::milliseconds connectTimeout{2000};

    /** Total tries per request (first attempt + retries) on
     *  connection-level failures. Non-transport errors (version
     *  mismatch, bad program, server error) never retry. */
    unsigned maxAttempts = 4;

    /** Capped exponential backoff between retries. */
    std::chrono::milliseconds backoffBase{50};
    std::chrono::milliseconds backoffCap{2000};

    /** Enroll this client's evaluation keys over the wire when the
     *  server rejects the fingerprint as unknown, then resend. */
    bool autoEnroll = true;

    /** Precomputed key fingerprint. Supplying it skips the (BSK-sized)
     *  canonical serialization fingerprintEvaluationKeys performs —
     *  the service computes it once per tenant, not once per batch. */
    std::optional<tfhe::KeyFingerprint> fingerprint;
};

/**
 * Everything needed to stand up one execution backend — the single
 * spec the service and the circuit executor build backends from
 * instead of per-kind constructor piles.
 */
struct BackendSpec
{
    BackendKind kind = BackendKind::kFunctional;

    /** Accelerator geometry for kTiming and kCosim's timing half. */
    arch::ArchConfig timing;

    /** Server coordinates and retry policy for kRemote. */
    RemoteClientConfig remote;
};

/**
 * Build the backend a spec describes. kCosim runs a FunctionalBackend
 * and a TimingBackend over each program and cross-checks them
 * (including outputs against tfhe::batchBootstrap). The keys must
 * outlive the returned backend. Throws std::invalid_argument on a
 * kRemote spec with port 0 or maxAttempts 0.
 */
std::unique_ptr<ExecutionBackend>
makeBackend(const tfhe::EvaluationKeys &keys, const BackendSpec &spec = {});

} // namespace morphling::exec

#endif // MORPHLING_EXEC_BACKEND_H
