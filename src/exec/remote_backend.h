/**
 * @file
 * The client half of the remote execution split: an ExecutionBackend
 * that ships its program, input ciphertexts and LUT to a RemoteServer
 * over the framed TCP protocol (remote_protocol.h) and returns the
 * outputs and retirement log of the server's one kResult frame.
 *
 * Drop-in contract: the retirement log and output ciphertexts are
 * bit-identical to a local FunctionalBackend run of the same program
 * at any thread count (the server runs one; tests/test_remote.cc
 * asserts the identity), so MultiTenantService and submitCircuit work
 * over the wire unchanged — select it with ServiceConfig::backend =
 * kRemote.
 *
 * Robustness:
 *  - every request carries a deadline (RemoteClientConfig::
 *    requestTimeout) covering connect + send + execution + response;
 *    expiry surfaces as RemoteError(kTimeout), never a hang;
 *  - connection-level failures (refused connect, peer reset before
 *    the result arrived) retry with capped exponential backoff up to
 *    maxAttempts, still under the same deadline;
 *  - retries resend the same request id, and the server's idempotency
 *    cache guarantees the work is never executed twice — a disconnect
 *    that lost the result frame replays the cached result;
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
#include "tfhe/serialize.h"

namespace morphling::exec {

/**
 * Executes programs on a RemoteServer. The connection is established
 * lazily on the first run() and reused across runs. Single-driver like
 * every ExecutionBackend; one backend is one connection.
 */
class RemoteBackend final : public ExecutionBackend
{
  public:
    /** Evaluation keys must outlive the backend (the usual server-key
     *  deployment; mirrors FunctionalBackend). Throws
     *  std::invalid_argument when config.port or config.maxAttempts is
     *  0. */
    RemoteBackend(const tfhe::EvaluationKeys &keys,
                  RemoteClientConfig config);

    ~RemoteBackend() override;

    std::string_view name() const override { return "remote"; }

    /** Execute remotely (connect, handshake, send, receive the
     *  result), with deadline/retry as configured. Throws
     *  remote::RemoteError. */
    ExecutionResult run(const compiler::Program &program,
                        const Job &job) override;

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

    /** Payload bytes sent/received over the last run(). */
    std::uint64_t lastBytesSent() const { return bytesSent_; }
    std::uint64_t lastBytesReceived() const { return bytesReceived_; }
    /** @} */

    /** Drop the connection (next run() reconnects). Tests use this to
     *  exercise the reconnect path deliberately. */
    void closeConnection();

  private:
    /** Connect + Hello/HelloAck when not already connected. */
    void ensureConnected(remote::Deadline deadline);

    /** Serialize our keys to the server, verify the acked
     *  fingerprint. */
    void enroll(remote::Deadline deadline);

    /** Receive the kResult frame for requestId_; nullopt when the
     *  server asked for enrollment (kUnknownKey with autoEnroll on). */
    std::optional<ExecutionResult>
    receiveResponse(const compiler::Program &program,
                    remote::Deadline deadline);

    std::vector<std::uint8_t> encodeExecute(
        const compiler::Program &program, const Job &job) const;

    const tfhe::EvaluationKeys &keys_;
    RemoteClientConfig config_;
    mutable std::optional<tfhe::KeyFingerprint> fingerprint_;

    remote::Socket socket_;

    std::uint64_t requestId_ = 0;
    unsigned attempts_ = 0;
    std::uint64_t serverExecutions_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_REMOTE_BACKEND_H
