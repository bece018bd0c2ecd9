#include "exec/remote_backend.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace morphling::exec {

using remote::Frame;
using remote::FrameType;
using remote::RemoteError;
using remote::RemoteErrorKind;
using remote::WireReader;
using remote::WireWriter;

namespace {

constexpr std::size_t kFrameOverhead = 5;

/** Process-unique request ids: a random per-process salt combined
 *  with a counter, so two client processes retrying against the same
 *  server (or one process across reconnects) never collide in the
 *  server's idempotency cache. */
std::uint64_t
nextRequestId()
{
    static const std::uint64_t salt = [] {
        std::random_device rd;
        return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<std::uint64_t> counter{0};
    return salt ^
           ((counter.fetch_add(1) + 1) * 0x9E3779B97F4A7C15ull);
}

bool
isRetryable(RemoteErrorKind kind)
{
    return kind == RemoteErrorKind::kConnectFailed ||
           kind == RemoteErrorKind::kConnectionLost;
}

} // namespace

RemoteBackend::RemoteBackend(const tfhe::EvaluationKeys &keys,
                             RemoteClientConfig config)
    : keys_(keys), config_(std::move(config)),
      fingerprint_(config_.fingerprint)
{
    if (config_.port == 0)
        throw std::invalid_argument(
            "RemoteBackend: config.port must name the server's TCP "
            "port (0 is not a destination)");
    if (config_.maxAttempts == 0)
        throw std::invalid_argument(
            "RemoteBackend: maxAttempts must be >= 1");
}

RemoteBackend::~RemoteBackend() = default;

tfhe::KeyFingerprint
RemoteBackend::fingerprint() const
{
    if (!fingerprint_.has_value())
        fingerprint_ = tfhe::fingerprintEvaluationKeys(keys_);
    return *fingerprint_;
}

void
RemoteBackend::closeConnection()
{
    socket_.close();
}

std::vector<std::uint8_t>
RemoteBackend::encodeExecute(const compiler::Program &program,
                             const Job &job) const
{
    WireWriter w;
    w.u64(requestId_);
    w.u64(fingerprint());
    w.u8(job.signLut ? 1 : 0);
    w.u32(job.options.threads);
    w.u8(job.options.checkNoise ? 1 : 0);
    w.f64(job.options.minSlotSigmas);
    static const std::vector<tfhe::Torus32> kNoLut;
    remote::writeTorusVector(w, job.lut ? *job.lut : kNoLut);
    remote::writeWordVector(w, program.serializeFramed());
    const std::size_t inputs = job.inputs ? job.inputs->size() : 0;
    w.u32(static_cast<std::uint32_t>(inputs));
    for (std::size_t i = 0; i < inputs; ++i)
        remote::writeCiphertext(w, (*job.inputs)[i]);
    return w.take();
}

void
RemoteBackend::ensureConnected(remote::Deadline deadline)
{
    if (socket_.valid())
        return;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
        throw RemoteError(RemoteErrorKind::kTimeout,
                          "request deadline expired before connect");
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              now);
    socket_ = remote::connectTcp(config_.host, config_.port,
                                 std::min(config_.connectTimeout,
                                          remaining));
    remote::sendHello(socket_, FrameType::kHello, deadline);
    Frame ack = remote::recvFrame(socket_, deadline);
    if (ack.type == FrameType::kError) {
        socket_.close();
        throw remote::decodeError(ack);
    }
    remote::checkHello(ack, FrameType::kHelloAck);
}

void
RemoteBackend::enroll(remote::Deadline deadline)
{
    const std::vector<std::uint8_t> payload =
        remote::encodeEvaluationKeys(keys_);
    remote::sendFrame(socket_, FrameType::kEnrollKeys, payload,
                      deadline);
    bytesSent_ += payload.size() + kFrameOverhead;
    Frame ack = remote::recvFrame(socket_, deadline);
    bytesReceived_ += ack.payload.size() + kFrameOverhead;
    if (ack.type == FrameType::kError)
        throw remote::decodeError(ack);
    if (ack.type != FrameType::kEnrollAck)
        throw RemoteError(RemoteErrorKind::kProtocol,
                          "expected EnrollAck after key enrollment");
    WireReader r(ack.payload);
    const std::uint64_t acked = r.u64();
    r.expectEnd();
    if (acked != fingerprint())
        throw RemoteError(
            RemoteErrorKind::kProtocol,
            morphling::detail::concat(
                "server fingerprinted the enrolled keys as ",
                tfhe::fingerprintHex(acked), ", expected ",
                tfhe::fingerprintHex(fingerprint()),
                " — serialization disagreement between peers"));
}

std::optional<ExecutionResult>
RemoteBackend::receiveResponse(const compiler::Program &program,
                               remote::Deadline deadline)
{
    Frame frame = remote::recvFrame(socket_, deadline);
    bytesReceived_ += frame.payload.size() + kFrameOverhead;
    if (frame.type == FrameType::kError) {
        RemoteError err = remote::decodeError(frame);
        if (err.kind() == RemoteErrorKind::kUnknownKey &&
            config_.autoEnroll)
            return std::nullopt; // caller enrolls and resends
        throw err;
    }
    if (frame.type != FrameType::kResult)
        throw RemoteError(RemoteErrorKind::kProtocol,
                          morphling::detail::concat(
                              "unexpected frame type ",
                              static_cast<int>(frame.type),
                              " in response position"));

    WireReader r(frame.payload);
    if (r.u64() != requestId_)
        throw RemoteError(RemoteErrorKind::kProtocol,
                          "result frame for a different request id");
    serverExecutions_ = r.u64();
    ExecutionResult result;
    result.backend = name();
    result.hasOutputs = r.u8() != 0;
    const std::uint32_t outputs = r.u32();
    if (outputs > program.totalBlindRotations())
        throw RemoteError(RemoteErrorKind::kProtocol,
                          "more outputs than blind-rotation slots");
    result.outputs.reserve(outputs);
    for (std::uint32_t i = 0; i < outputs; ++i)
        result.outputs.push_back(remote::readCiphertext(r));
    const std::uint32_t retired = r.u32();
    if (retired > program.size())
        throw RemoteError(RemoteErrorKind::kProtocol,
                          "more retirements than instructions");
    result.retired.reserve(retired);
    for (std::uint32_t i = 0; i < retired; ++i) {
        RetiredInstruction ri;
        ri.index = static_cast<std::size_t>(r.u64());
        ri.seq = r.u64();
        ri.tick = r.u64();
        if (ri.index >= program.size())
            throw RemoteError(RemoteErrorKind::kProtocol,
                              "retired instruction index out of range");
        ri.inst = program.at(ri.index);
        result.retired.push_back(ri);
    }
    r.expectEnd();
    return result;
}

ExecutionResult
RemoteBackend::run(const compiler::Program &program, const Job &job)
{
    serverExecutions_ = 0;
    bytesSent_ = 0;
    bytesReceived_ = 0;
    requestId_ = nextRequestId();
    const std::vector<std::uint8_t> payload =
        encodeExecute(program, job);
    const remote::Deadline deadline =
        remote::deadlineAfter(config_.requestTimeout);
    std::chrono::milliseconds backoff = config_.backoffBase;
    attempts_ = 0;
    bool enrolledThisRequest = false;

    for (;;) {
        ++attempts_;
        try {
            ensureConnected(deadline);
            remote::sendFrame(socket_, FrameType::kExecute, payload,
                              deadline);
            bytesSent_ += payload.size() + kFrameOverhead;
            if (auto result = receiveResponse(program, deadline))
                return std::move(*result);
            // Server does not hold our keys: enroll once, resend the
            // same request id on the same connection and attempt.
            if (enrolledThisRequest)
                throw RemoteError(
                    RemoteErrorKind::kUnknownKey,
                    "server still rejects our key fingerprint after "
                    "enrollment");
            enroll(deadline);
            enrolledThisRequest = true;
            remote::sendFrame(socket_, FrameType::kExecute, payload,
                              deadline);
            bytesSent_ += payload.size() + kFrameOverhead;
            if (auto result = receiveResponse(program, deadline))
                return std::move(*result);
            throw RemoteError(
                RemoteErrorKind::kUnknownKey,
                "server still rejects our key fingerprint after "
                "enrollment");
        } catch (const RemoteError &e) {
            socket_.close();
            if (!isRetryable(e.kind()) ||
                attempts_ >= config_.maxAttempts)
                throw;
            const auto now = std::chrono::steady_clock::now();
            if (now + backoff >= deadline)
                throw RemoteError(
                    RemoteErrorKind::kTimeout,
                    morphling::detail::concat(
                        "request deadline expired while backing off "
                        "after: ",
                        e.what()));
            std::this_thread::sleep_for(backoff);
            backoff = std::min(backoff * 2, config_.backoffCap);
        }
    }
}

} // namespace morphling::exec
