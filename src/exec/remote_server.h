/**
 * @file
 * The server half of the remote execution split: a TCP server running
 * FunctionalBackend behind the framed protocol of remote_protocol.h.
 *
 * Each connection is handled on its own thread: handshake, then a
 * loop of enrollment and execution requests. Evaluation keys are held
 * in a store keyed by their content-derived fingerprint
 * (tfhe::fingerprintEvaluationKeys), one resident copy per key set
 * for the server's life. They are pre-provisioned through addKeys()
 * or enrolled over the wire, and verified (tfhe::verify) either way:
 * a key set the backend cannot run never enters the store. Every
 * execution request names the fingerprint it runs under, so one
 * server serves many tenants' keys.
 *
 * Each request runs FunctionalBackend::run() over the whole program,
 * at the request's thread count clamped to the host's hardware
 * concurrency, and is answered with one kResult frame carrying the
 * output ciphertexts and the retirement log. Outputs and log are
 * bit-identical to a local FunctionalBackend run at any thread count
 * (asserted in tests/test_remote.cc).
 *
 * Validation: an enrollment must decode and pass tfhe::verify, or the
 * server answers kMalformedFrame. A request's program must decode and
 * verify (compiler::verify) and its job must fit the program's plan
 * (validateJob); otherwise the server answers kBadProgram before the
 * idempotency gate, so the rejection leaves no cache state.
 *
 * Idempotency: completed requests are cached by request id (bounded
 * LRU) as their encoded kResult payload. A client that lost its
 * connection before the result arrived retries with the same id and
 * gets the cached response replayed — the request is never executed
 * twice. A request whose original execution is still in flight blocks
 * the retry until the result lands, then replays it. If the connection
 * dies mid-execution the server finishes and caches the result anyway,
 * so the retry finds it.
 */

#ifndef MORPHLING_EXEC_REMOTE_SERVER_H
#define MORPHLING_EXEC_REMOTE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/backend.h"
#include "exec/remote_protocol.h"
#include "tfhe/serialize.h"

namespace morphling::exec {

/** Configuration of a RemoteServer. */
struct RemoteServerConfig
{
    /** Bind address. The default serves loopback only — this protocol
     *  carries no authentication; anything wider belongs behind a
     *  fronting proxy. */
    std::string bindHost = "127.0.0.1";

    /** TCP port; 0 binds an ephemeral port (read it back via
     *  port()). */
    std::uint16_t port = 0;

    /** The backend every request executes on. Only kFunctional
     *  serves requests; start() throws std::invalid_argument on any
     *  other kind. */
    BackendSpec inner;

    /** Completed requests kept for idempotent retry (LRU). */
    std::size_t maxCachedResults = 64;

    /** Patience for one frame's bytes (and for the handshake). A peer
     *  that stalls mid-frame longer than this is dropped. */
    std::chrono::milliseconds frameTimeout{10000};

    /** Patience for the next request on an idle connection. */
    std::chrono::milliseconds idleTimeout{60000};

    /**
     * Fault injection for the transport-failure tests: when set, the
     * first execution caches its result and then closes the connection
     * instead of sending it (a link that died before the result
     * arrived). Fires once per server.
     */
    bool dropFirstResult = false;
};

/** Observable counters (tests and the roundtrip bench). */
struct RemoteServerStats
{
    std::uint64_t connections = 0;  //!< accepted TCP connections
    std::uint64_t requests = 0;     //!< kExecute frames parsed
    std::uint64_t executions = 0;   //!< FunctionalBackend runs
    std::uint64_t replays = 0;      //!< served from the result cache
    std::uint64_t enrollments = 0;  //!< keys enrolled over the wire
    std::uint64_t rejected = 0;     //!< kError frames sent
    std::uint64_t dropped = 0;      //!< connections lost mid-exchange
    std::uint64_t bytesIn = 0;      //!< request payload bytes parsed
    std::uint64_t bytesOut = 0;     //!< response payload bytes sent
};

/**
 * Hosts FunctionalBackend execution behind the remote protocol.
 * start()/stop() bracket the serving window; the destructor stops.
 * Thread-safe: addKeys() and stats() may be called while serving.
 */
class RemoteServer
{
  public:
    explicit RemoteServer(RemoteServerConfig config = {});
    ~RemoteServer();

    RemoteServer(const RemoteServer &) = delete;
    RemoteServer &operator=(const RemoteServer &) = delete;

    /** Pre-provision evaluation keys (the fork-style deployment where
     *  the server inherits keys instead of receiving them over the
     *  wire). Returns their fingerprint; throws std::invalid_argument
     *  with tfhe::verify's diagnostic for keys it rejects. */
    tfhe::KeyFingerprint addKeys(tfhe::EvaluationKeys keys);

    /** Bind, listen, and serve until stop(). Throws
     *  std::invalid_argument on a config the server cannot serve with,
     *  std::logic_error when already running, and
     *  RemoteError(kConnectFailed) when the port cannot be bound. */
    void start();

    /** Stop accepting, unblock and join every connection. Requests
     *  already executing run to completion (and populate the
     *  idempotency cache) but their responses are not delivered.
     *  Idempotent. */
    void stop();

    /** True between start() and stop(). */
    bool running() const;

    /** The bound TCP port (the ephemeral one when config.port == 0).
     *  Valid after start(). */
    std::uint16_t port() const;

    RemoteServerStats stats() const;

    /** How many times the request id was actually executed, read from
     *  its result-cache entry (0 when never seen, beyond-LRU entries
     *  forget). The double-execution guard the retry tests assert
     *  on. */
    std::uint64_t executionsFor(std::uint64_t requestId) const;

  private:
    struct CachedResult
    {
        /** The encoded kResult payload; null while the first
         *  execution runs. */
        std::shared_ptr<const std::vector<std::uint8_t>> response;
        std::uint64_t executions = 0;
    };

    struct Connection
    {
        remote::Socket socket;
        std::thread thread;
        /** Set by the connection thread as it exits; read by the
         *  acceptor when reaping (atomic: no lock on the write side). */
        std::atomic<bool> finished{false};
    };

    void acceptLoop();
    void serveConnection(Connection *conn);

    /** One kExecute frame: parse, dedup, execute, cache, respond. */
    void handleExecute(Connection *conn,
                       const std::vector<std::uint8_t> &payload);
    void handleEnroll(Connection *conn,
                      const std::vector<std::uint8_t> &payload);

    /** Send a cached (or just-computed) kResult payload; a broken
     *  connection only counts as dropped (the cache keeps the result
     *  for the retry). */
    void sendResult(Connection *conn,
                    const std::vector<std::uint8_t> &payload);

    void sendErrorCounted(Connection *conn, remote::WireErrorCode code,
                          const std::string &message);

    /** Bounded-LRU insert under cacheMu_. */
    void cacheInsertLocked(std::uint64_t request_id, CachedResult value);

    RemoteServerConfig config_;

    remote::Socket listener_;
    std::uint16_t boundPort_ = 0;
    std::thread acceptor_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> dropFired_{false};

    mutable std::mutex connMu_;
    std::list<Connection> connections_;

    mutable std::mutex keysMu_;
    std::map<tfhe::KeyFingerprint,
             std::shared_ptr<const tfhe::EvaluationKeys>>
        keys_;

    mutable std::mutex cacheMu_;
    std::condition_variable cacheCv_; //!< retries await in-flight runs
    std::map<std::uint64_t, CachedResult> cache_;
    std::list<std::uint64_t> cacheOrder_; //!< LRU, oldest first

    mutable std::mutex statsMu_;
    RemoteServerStats stats_;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_REMOTE_SERVER_H
