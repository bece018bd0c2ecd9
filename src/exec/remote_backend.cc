#include "exec/remote_backend.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
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
    : keys_(&keys), config_(std::move(config)),
      fingerprint_(config_.fingerprint)
{
    fatal_if(config_.port == 0,
             "RemoteBackend: config.port must name the server's TCP "
             "port (0 is not a destination)");
    fatal_if(config_.maxAttempts == 0,
             "RemoteBackend: maxAttempts must be >= 1");
}

RemoteBackend::RemoteBackend(const tfhe::KeySet &keys,
                             RemoteClientConfig config)
    : keys_(nullptr), config_(std::move(config)),
      fingerprint_(config_.fingerprint)
{
    fatal_if(config_.port == 0,
             "RemoteBackend: config.port must name the server's TCP "
             "port (0 is not a destination)");
    fatal_if(config_.maxAttempts == 0,
             "RemoteBackend: maxAttempts must be >= 1");
    ownedKeys_ = tfhe::EvaluationKeys::fromKeySet(keys);
    keys_ = &*ownedKeys_;
}

RemoteBackend::~RemoteBackend() = default;

tfhe::KeyFingerprint
RemoteBackend::fingerprint() const
{
    if (!fingerprint_.has_value())
        fingerprint_ = tfhe::fingerprintEvaluationKeys(*keys_);
    return *fingerprint_;
}

void
RemoteBackend::closeConnection()
{
    socket_.close();
}

void
RemoteBackend::load(const compiler::Program &program, const Job &job)
{
    retired_.clear();
    outputs_.clear();
    hasOutputs_ = false;
    cursor_ = 0;
    loaded_ = false;
    serverExecutions_ = 0;
    bytesSent_ = 0;
    bytesReceived_ = 0;
    executeRemote(program, job);
    loaded_ = true;
}

std::optional<RetiredInstruction>
RemoteBackend::step()
{
    panic_if(!loaded_, "step() before load()");
    if (cursor_ >= retired_.size())
        return std::nullopt;
    return retired_[cursor_++];
}

bool
RemoteBackend::done() const
{
    return loaded_ && cursor_ >= retired_.size();
}

ExecutionResult
RemoteBackend::finish()
{
    panic_if(!loaded_, "finish() before load()");
    panic_if(!done(), "finish() before the program fully retired");
    ExecutionResult result;
    result.backend = name();
    result.outputs = std::move(outputs_);
    result.hasOutputs = hasOutputs_;
    result.retired = std::move(retired_);
    outputs_.clear();
    retired_.clear();
    cursor_ = 0;
    loaded_ = false;
    return result;
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
        remote::encodeEvaluationKeys(*keys_);
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

bool
RemoteBackend::receiveResponse(const compiler::Program &program,
                               remote::Deadline deadline)
{
    for (;;) {
        Frame frame = remote::recvFrame(socket_, deadline);
        bytesReceived_ += frame.payload.size() + kFrameOverhead;
        switch (frame.type) {
        case FrameType::kRetire: {
            WireReader r(frame.payload);
            const std::uint64_t id = r.u64();
            if (id != requestId_)
                throw RemoteError(RemoteErrorKind::kProtocol,
                                  "retirement frame for a different "
                                  "request id");
            const std::uint32_t count = r.u32();
            for (std::uint32_t i = 0; i < count; ++i) {
                RetiredInstruction ri;
                ri.index = static_cast<std::size_t>(r.u64());
                ri.seq = r.u64();
                ri.tick = r.u64();
                if (ri.index >= program.size())
                    throw RemoteError(
                        RemoteErrorKind::kProtocol,
                        "retired instruction index out of range");
                ri.inst = program.at(ri.index);
                retired_.push_back(ri);
            }
            r.expectEnd();
            break;
        }
        case FrameType::kResult: {
            WireReader r(frame.payload);
            const std::uint64_t id = r.u64();
            if (id != requestId_)
                throw RemoteError(RemoteErrorKind::kProtocol,
                                  "result frame for a different "
                                  "request id");
            serverExecutions_ = r.u64();
            hasOutputs_ = r.u8() != 0;
            const std::uint32_t count = r.u32();
            outputs_.clear();
            outputs_.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i)
                outputs_.push_back(remote::readCiphertext(r));
            r.expectEnd();
            return true;
        }
        case FrameType::kError: {
            RemoteError err = remote::decodeError(frame);
            if (err.kind() == RemoteErrorKind::kUnknownKey &&
                config_.autoEnroll)
                return false; // caller enrolls and resends
            throw err;
        }
        default:
            throw RemoteError(RemoteErrorKind::kProtocol,
                              morphling::detail::concat(
                                  "unexpected frame type ",
                                  static_cast<int>(frame.type),
                                  " in response position"));
        }
    }
}

void
RemoteBackend::executeRemote(const compiler::Program &program,
                             const Job &job)
{
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
            retired_.clear(); // partial stream from a failed attempt
            remote::sendFrame(socket_, FrameType::kExecute, payload,
                              deadline);
            bytesSent_ += payload.size() + kFrameOverhead;
            if (receiveResponse(program, deadline))
                return;
            // Server does not hold our keys: enroll once, resend the
            // same request id on the same connection and attempt.
            if (enrolledThisRequest)
                throw RemoteError(
                    RemoteErrorKind::kUnknownKey,
                    "server still rejects our key fingerprint after "
                    "enrollment");
            enroll(deadline);
            enrolledThisRequest = true;
            retired_.clear();
            remote::sendFrame(socket_, FrameType::kExecute, payload,
                              deadline);
            bytesSent_ += payload.size() + kFrameOverhead;
            if (receiveResponse(program, deadline))
                return;
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
