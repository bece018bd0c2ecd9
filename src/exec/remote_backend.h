/**
 * @file
 * The client half of the remote execution split: an ExecutionBackend
 * that ships its program, input ciphertexts and LUT to a RemoteServer
 * over the framed TCP protocol (remote_protocol.h) and replays the
 * streamed retirement log locally.
 *
 * Drop-in contract: for the default single-threaded Job the retirement
 * log and output ciphertexts are bit-identical to a local
 * FunctionalBackend run of the same program (the server single-steps
 * one; tests/test_remote.cc asserts the identity),
 * so MultiTenantService and submitCircuit work over the wire
 * unchanged — select it with ServiceConfig::backend = kRemote.
 *
 * Robustness:
 *  - every request carries a deadline (RemoteClientConfig::
 *    requestTimeout) covering connect + send + execution + response;
 *    expiry surfaces as RemoteError(kTimeout), never a hang;
 *  - connection-level failures (refused connect, peer reset mid-
 *    stream) retry with capped exponential backoff up to maxAttempts,
 *    still under the same deadline;
 *  - retries resend the same request id, and the server's idempotency
 *    cache guarantees the work is never executed twice — a disconnect
 *    that raced the final frames replays the cached result;
 *  - non-transport failures (version mismatch, malformed frame, bad
 *    program, server-side error) are typed, never retried.
 */

#ifndef MORPHLING_EXEC_REMOTE_BACKEND_H
#define MORPHLING_EXEC_REMOTE_BACKEND_H

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/backend.h"
#include "exec/remote_protocol.h"
#include "tfhe/keyset.h"
#include "tfhe/serialize.h"

namespace morphling::exec {

/**
 * Executes programs on a RemoteServer. Like ShardedBackend, load()
 * performs the whole (remote) execution eagerly; step() then replays
 * the streamed retirement log and finish() returns the outputs.
 *
 * The connection is established lazily on the first load() and reused
 * across runs. Single-driver like every ExecutionBackend; one backend
 * is one connection.
 */
class RemoteBackend final : public ExecutionBackend
{
  public:
    /** Evaluation keys must outlive the backend (the usual server-key
     *  deployment; mirrors FunctionalBackend). */
    RemoteBackend(const tfhe::EvaluationKeys &keys,
                  RemoteClientConfig config);

    /** KeySet convenience: extracts and owns the evaluation half. */
    RemoteBackend(const tfhe::KeySet &keys, RemoteClientConfig config);

    ~RemoteBackend() override;

    std::string_view name() const override { return "remote"; }

    /** Execute remotely (connect, handshake, send, stream back), with
     *  deadline/retry as configured. Throws remote::RemoteError. */
    void load(const compiler::Program &program, const Job &job) override;

    std::optional<RetiredInstruction> step() override;
    bool done() const override;
    ExecutionResult finish() override;

    /** The fingerprint requests run under (computed once and cached
     *  unless the config supplied it). */
    tfhe::KeyFingerprint fingerprint() const;

    /** @{ Last-request introspection (tests and the roundtrip bench). */
    std::uint64_t lastRequestId() const { return requestId_; }
    unsigned lastAttempts() const { return attempts_; }

    /** How many times the server reports having executed the last
     *  request — 1 even after a mid-stream disconnect + retry. */
    std::uint64_t lastServerExecutions() const
    {
        return serverExecutions_;
    }

    /** Payload bytes sent/received over the last load(). */
    std::uint64_t lastBytesSent() const { return bytesSent_; }
    std::uint64_t lastBytesReceived() const { return bytesReceived_; }
    /** @} */

    /** Drop the connection (next load() reconnects). Tests use this to
     *  exercise the reconnect path deliberately. */
    void closeConnection();

  private:
    void executeRemote(const compiler::Program &program, const Job &job);

    /** Connect + Hello/HelloAck when not already connected. */
    void ensureConnected(remote::Deadline deadline);

    /** Serialize our keys to the server, verify the acked
     *  fingerprint. */
    void enroll(remote::Deadline deadline);

    /** Receive kRetire/kResult frames for requestId_ until the result
     *  lands; returns false when the server asked for enrollment
     *  (kUnknownKey with autoEnroll on). */
    bool receiveResponse(const compiler::Program &program,
                         remote::Deadline deadline);

    std::vector<std::uint8_t> encodeExecute(
        const compiler::Program &program, const Job &job) const;

    const tfhe::EvaluationKeys *keys_;
    /** Storage behind keys_ for the KeySet overload. */
    std::optional<tfhe::EvaluationKeys> ownedKeys_;
    RemoteClientConfig config_;
    mutable std::optional<tfhe::KeyFingerprint> fingerprint_;

    remote::Socket socket_;

    // Replayed state of the last load().
    std::vector<RetiredInstruction> retired_;
    std::vector<tfhe::LweCiphertext> outputs_;
    bool hasOutputs_ = false;
    std::size_t cursor_ = 0;
    bool loaded_ = false;

    std::uint64_t requestId_ = 0;
    unsigned attempts_ = 0;
    std::uint64_t serverExecutions_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_REMOTE_BACKEND_H
