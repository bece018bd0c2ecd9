#include "exec/remote_server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "compiler/program.h"
#include "compiler/verify.h"
#include "exec/functional_backend.h"
#include "tfhe/verify.h"

namespace morphling::exec {

using remote::Frame;
using remote::FrameType;
using remote::RemoteError;
using remote::RemoteErrorKind;
using remote::WireErrorCode;
using remote::WireReader;
using remote::WireWriter;

namespace {

/** Per-frame header bytes, counted into the byte stats alongside the
 *  payload so the bench's wire accounting matches what TCP carries. */
constexpr std::size_t kFrameOverhead = 5;

/** Ciphertext count cap mirroring the per-ciphertext dimension cap in
 *  remote_protocol.cc — a lying count cannot force a huge reserve. */
constexpr std::uint32_t kMaxInputs = 1u << 24;

/** A kResult payload: outputs, then the retirement log. */
std::vector<std::uint8_t>
encodeResult(std::uint64_t request_id, std::uint64_t executions,
             const ExecutionResult &result)
{
    WireWriter w;
    w.u64(request_id);
    w.u64(executions);
    w.u8(result.hasOutputs ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(result.outputs.size()));
    for (const tfhe::LweCiphertext &ct : result.outputs)
        remote::writeCiphertext(w, ct);
    w.u32(static_cast<std::uint32_t>(result.retired.size()));
    for (const RetiredInstruction &r : result.retired) {
        w.u64(r.index);
        w.u64(r.seq);
        w.u64(r.tick);
    }
    return w.take();
}

} // namespace

RemoteServer::RemoteServer(RemoteServerConfig config)
    : config_(std::move(config))
{
}

RemoteServer::~RemoteServer() { stop(); }

tfhe::KeyFingerprint RemoteServer::addKeys(tfhe::EvaluationKeys keys)
{
    if (const auto problem = tfhe::verify(keys))
        throw std::invalid_argument("RemoteServer::addKeys: " + *problem);
    const tfhe::KeyFingerprint fp = tfhe::fingerprintEvaluationKeys(keys);
    std::lock_guard<std::mutex> lock(keysMu_);
    keys_[fp] =
        std::make_shared<const tfhe::EvaluationKeys>(std::move(keys));
    return fp;
}

void RemoteServer::start()
{
    if (running_.load())
        throw std::logic_error("RemoteServer::start: already running");
    if (config_.inner.kind != BackendKind::kFunctional) {
        throw std::invalid_argument(morphling::detail::concat(
            "RemoteServer: inner backend must be kFunctional, got ",
            backendKindName(config_.inner.kind)));
    }

    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    const std::string service = std::to_string(config_.port);
    struct addrinfo *res = nullptr;
    const int gai = ::getaddrinfo(config_.bindHost.c_str(),
                                  service.c_str(), &hints, &res);
    if (gai != 0 || res == nullptr)
        throw RemoteError(RemoteErrorKind::kConnectFailed,
                          morphling::detail::concat(
                              "cannot resolve bind address ",
                              config_.bindHost, ": ",
                              ::gai_strerror(gai)));

    int fd = -1;
    std::string lastError = "no usable address";
    for (struct addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastError = std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 16) == 0)
            break;
        lastError = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        throw RemoteError(
            RemoteErrorKind::kConnectFailed,
            morphling::detail::concat("cannot bind ", config_.bindHost,
                                      ":", config_.port, ": ",
                                      lastError));
    listener_ = remote::Socket(fd);

    struct sockaddr_storage addr;
    socklen_t addrLen = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      &addrLen) == 0) {
        if (addr.ss_family == AF_INET)
            boundPort_ = ntohs(
                reinterpret_cast<struct sockaddr_in *>(&addr)->sin_port);
        else if (addr.ss_family == AF_INET6)
            boundPort_ = ntohs(
                reinterpret_cast<struct sockaddr_in6 *>(&addr)
                    ->sin6_port);
    }

    stopping_.store(false);
    running_.store(true);
    acceptor_ = std::thread([this] { acceptLoop(); });
}

void RemoteServer::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    cacheCv_.notify_all();
    // The accept loop polls with a 100ms timeout and re-checks
    // stopping_, so joining first is bounded — and the listener fd
    // must not be closed while that thread may still hand it to
    // poll()/accept() (close would race, and the fd number could be
    // reused under it).
    if (acceptor_.joinable())
        acceptor_.join();
    listener_.close();
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (Connection &conn : connections_)
            conn.socket.shutdownBoth();
    }
    // After the acceptor is gone no new connections appear, and the
    // connection threads never touch the list — joining without the
    // lock is safe.
    for (Connection &conn : connections_)
        if (conn.thread.joinable())
            conn.thread.join();
    connections_.clear();
    running_.store(false);
}

bool RemoteServer::running() const { return running_.load(); }

std::uint16_t RemoteServer::port() const { return boundPort_; }

RemoteServerStats RemoteServer::stats() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return stats_;
}

std::uint64_t RemoteServer::executionsFor(std::uint64_t requestId) const
{
    std::lock_guard<std::mutex> lock(cacheMu_);
    auto it = cache_.find(requestId);
    return it == cache_.end() ? 0 : it->second.executions;
}

void RemoteServer::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd pfd;
        pfd.fd = listener_.fd();
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int rc = ::poll(&pfd, 1, 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                break;
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        std::lock_guard<std::mutex> lock(connMu_);
        // Reap connections whose threads already finished so a
        // long-lived server does not accumulate joinable threads.
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if (it->finished && it->thread.joinable()) {
                it->thread.join();
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
        connections_.emplace_back();
        Connection *conn = &connections_.back();
        conn->socket = remote::Socket(fd);
        {
            std::lock_guard<std::mutex> slock(statsMu_);
            ++stats_.connections;
        }
        conn->thread =
            std::thread([this, conn] { serveConnection(conn); });
    }
}

void RemoteServer::serveConnection(Connection *conn)
{
    try {
        Frame hello =
            remote::recvFrame(conn->socket,
                              remote::deadlineAfter(config_.frameTimeout));
        try {
            remote::checkHello(hello, FrameType::kHello);
        } catch (const RemoteError &e) {
            sendErrorCounted(conn, WireErrorCode::kVersionMismatch,
                             e.what());
            conn->finished = true;
            return;
        }
        remote::sendHello(conn->socket, FrameType::kHelloAck,
                          remote::deadlineAfter(config_.frameTimeout));

        while (!stopping_.load()) {
            Frame frame;
            if (!remote::recvFrameOrClose(
                    conn->socket,
                    remote::deadlineAfter(config_.idleTimeout), frame))
                break; // clean goodbye
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                stats_.bytesIn += frame.payload.size() + kFrameOverhead;
            }
            switch (frame.type) {
            case FrameType::kExecute:
                try {
                    handleExecute(conn, frame.payload);
                } catch (const RemoteError &e) {
                    // A malformed payload inside an intact frame does
                    // not desync the stream: reject it and keep
                    // serving the connection.
                    if (e.kind() != RemoteErrorKind::kMalformedFrame)
                        throw;
                    sendErrorCounted(
                        conn, WireErrorCode::kMalformedFrame, e.what());
                }
                break;
            case FrameType::kEnrollKeys:
                handleEnroll(conn, frame.payload);
                break;
            default:
                sendErrorCounted(
                    conn, WireErrorCode::kMalformedFrame,
                    "unexpected frame type in request position");
                break;
            }
        }
    } catch (const RemoteError &) {
        if (!stopping_.load()) {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++stats_.dropped;
        }
    } catch (const std::exception &e) {
        warn("remote server connection failed: ", e.what());
    }
    // Signal the peer EOF but do NOT close: stop() may concurrently
    // shutdownBoth() this socket, and close would race with that (and
    // free an fd number another thread could reuse). The fd closes
    // with the Connection, after its thread is joined.
    conn->socket.shutdownBoth();
    conn->finished = true;
}

void RemoteServer::handleEnroll(Connection *conn,
                                const std::vector<std::uint8_t> &payload)
{
    std::string error;
    std::optional<tfhe::EvaluationKeys> keys =
        remote::decodeEvaluationKeys(payload, &error);
    if (!keys.has_value()) {
        sendErrorCounted(conn, WireErrorCode::kMalformedFrame,
                         morphling::detail::concat(
                             "key enrollment rejected: ", error));
        return;
    }
    const tfhe::KeyFingerprint fp =
        tfhe::fingerprintEvaluationKeys(*keys);
    {
        std::lock_guard<std::mutex> lock(keysMu_);
        keys_[fp] = std::make_shared<const tfhe::EvaluationKeys>(
            std::move(*keys));
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.enrollments;
    }
    WireWriter w;
    w.u64(fp);
    const std::vector<std::uint8_t> ack = w.take();
    remote::sendFrame(conn->socket, FrameType::kEnrollAck, ack,
                      remote::deadlineAfter(config_.frameTimeout));
    std::lock_guard<std::mutex> lock(statsMu_);
    stats_.bytesOut += ack.size() + kFrameOverhead;
}

void RemoteServer::sendResult(Connection *conn,
                              const std::vector<std::uint8_t> &payload)
{
    try {
        remote::sendFrame(conn->socket, FrameType::kResult, payload,
                          remote::deadlineAfter(config_.frameTimeout));
        std::lock_guard<std::mutex> lock(statsMu_);
        stats_.bytesOut += payload.size() + kFrameOverhead;
    } catch (const RemoteError &) {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.dropped;
    }
}

void RemoteServer::sendErrorCounted(Connection *conn,
                                    WireErrorCode code,
                                    const std::string &message)
{
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.rejected;
        stats_.bytesOut += message.size() + 8 + kFrameOverhead;
    }
    try {
        remote::sendError(conn->socket, code, message,
                          remote::deadlineAfter(config_.frameTimeout));
    } catch (const RemoteError &) {
        // Peer already gone; the connection loop notices next read.
    }
}

void RemoteServer::cacheInsertLocked(std::uint64_t request_id,
                                     CachedResult value)
{
    cache_[request_id] = std::move(value);
    cacheOrder_.push_back(request_id);
    while (cache_.size() > config_.maxCachedResults) {
        bool evicted = false;
        for (auto it = cacheOrder_.begin(); it != cacheOrder_.end();
             ++it) {
            auto entry = cache_.find(*it);
            if (entry == cache_.end()) {
                // Stale order entry (erased on an error path).
                it = cacheOrder_.erase(it);
                evicted = true;
                break;
            }
            if (entry->second.response) {
                cache_.erase(entry);
                cacheOrder_.erase(it);
                evicted = true;
                break;
            }
        }
        if (!evicted)
            break; // everything in flight; let the cache run long
    }
}

void RemoteServer::handleExecute(Connection *conn,
                                 const std::vector<std::uint8_t> &payload)
{
    WireReader r(payload);
    const std::uint64_t requestId = r.u64();
    const std::uint64_t fingerprint = r.u64();
    const bool signLut = r.u8() != 0;
    tfhe::BatchOptions options;
    // Never more workers than this host has, whatever the peer asks.
    options.threads = std::min(
        r.u32(), std::max(1u, std::thread::hardware_concurrency()));
    options.checkNoise = r.u8() != 0;
    options.minSlotSigmas = r.f64();
    const std::vector<tfhe::Torus32> lut = remote::readTorusVector(r);
    const std::vector<std::uint64_t> words = remote::readWordVector(r);
    const std::uint32_t inputCount = r.u32();
    if (inputCount > kMaxInputs)
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          "implausible input ciphertext count");
    std::vector<tfhe::LweCiphertext> inputs;
    inputs.reserve(inputCount);
    for (std::uint32_t i = 0; i < inputCount; ++i)
        inputs.push_back(remote::readCiphertext(r));
    r.expectEnd();
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.requests;
    }

    // Keys first: an unknown fingerprint is the one rejection the
    // client recovers from in-band (enroll, then resend the same
    // request id), so it must not leave any cache state behind.
    std::shared_ptr<const tfhe::EvaluationKeys> keys;
    {
        std::lock_guard<std::mutex> lock(keysMu_);
        auto it = keys_.find(fingerprint);
        if (it != keys_.end())
            keys = it->second;
    }
    if (!keys) {
        sendErrorCounted(conn, WireErrorCode::kUnknownKey,
                         morphling::detail::concat(
                             "no evaluation keys enrolled under "
                             "fingerprint ",
                             tfhe::fingerprintHex(fingerprint)));
        return;
    }

    // Decode and validate before touching the idempotency cache: a
    // request the server will reject must be rejectable on every
    // retry, not remembered as in-flight.
    std::string error;
    std::optional<compiler::Program> program =
        compiler::Program::tryDeserializeFramed("remote", words, &error);
    std::optional<compiler::ProgramPlan> plan;
    if (program.has_value())
        plan = compiler::verify(*program, keys->params, &error);
    if (!plan.has_value()) {
        sendErrorCounted(conn, WireErrorCode::kBadProgram,
                         "program rejected: " + error);
        return;
    }
    const Job job = signLut ? Job::sign(inputs, lut, options)
                            : Job::batch(inputs, lut, options);
    if (const auto job_error = validateJob(*plan, job, keys->params)) {
        sendErrorCounted(conn, WireErrorCode::kBadProgram,
                         "request rejected: " + *job_error);
        return;
    }

    // Idempotency gate: a known id replays; an in-flight id waits for
    // the original execution, then replays.
    {
        std::unique_lock<std::mutex> lock(cacheMu_);
        auto it = cache_.find(requestId);
        if (it != cache_.end()) {
            cacheCv_.wait(lock, [&] {
                auto entry = cache_.find(requestId);
                return entry == cache_.end() || entry->second.response ||
                       stopping_.load();
            });
            if (stopping_.load())
                return;
            auto entry = cache_.find(requestId);
            if (entry != cache_.end()) {
                const auto response = entry->second.response;
                lock.unlock();
                {
                    std::lock_guard<std::mutex> slock(statsMu_);
                    ++stats_.replays;
                }
                sendResult(conn, *response);
                return;
            }
            // Evicted between completion and wake-up (needs
            // maxCachedResults newer requests in the window) — fall
            // through and execute again.
        }
        CachedResult placeholder;
        placeholder.executions = 1;
        cacheInsertLocked(requestId, std::move(placeholder));
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.executions;
    }

    // Execute, then cache the encoded result before sending it: a
    // client whose connection dies before the result arrives retries
    // and gets it replayed instead of re-executed.
    ExecutionResult result;
    try {
        result = FunctionalBackend(*keys).run(*program, job);
    } catch (const std::exception &e) {
        // Execution failed: forget the in-flight entry (a retry gets
        // the same deterministic failure) and report it.
        {
            std::lock_guard<std::mutex> lock(cacheMu_);
            cache_.erase(requestId);
            cacheOrder_.remove(requestId);
        }
        cacheCv_.notify_all();
        sendErrorCounted(conn, WireErrorCode::kExecutionFailed, e.what());
        return;
    }

    std::shared_ptr<const std::vector<std::uint8_t>> response;
    {
        // The in-flight placeholder is never evicted, so it still
        // holds this request's execution count.
        std::lock_guard<std::mutex> lock(cacheMu_);
        CachedResult &entry = cache_[requestId];
        response = std::make_shared<const std::vector<std::uint8_t>>(
            encodeResult(requestId, entry.executions, result));
        entry.response = response;
    }
    cacheCv_.notify_all();

    if (config_.dropFirstResult && !dropFired_.exchange(true)) {
        conn->socket.shutdownBoth();
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.dropped;
        return;
    }
    sendResult(conn, *response);
}

} // namespace morphling::exec
