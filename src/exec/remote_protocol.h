/**
 * @file
 * Wire protocol shared by exec::RemoteBackend and exec::RemoteServer:
 * a length-framed TCP protocol carrying compiled Programs, ciphertext
 * batches and LUT tables to a server-hosted execution backend, which
 * answers each request with one kResult frame holding the output
 * ciphertexts and the retirement log (docs/execution_model.md, remote
 * backend section).
 *
 * Framing: every message is [u32 payload bytes][u8 frame type][payload],
 * little-endian throughout. A connection opens with a Hello/HelloAck
 * exchange carrying the protocol magic and version, so an incompatible
 * peer is rejected with a typed error instead of misparsing frames.
 *
 * Hardening stance: the frame layer never trusts its peer. Payload
 * lengths are capped, every payload read is bounds-checked
 * (WireReader), Programs decode through the hardened
 * compiler::Program::tryDeserializeFramed, key blobs through
 * tfhe::tryLoadEvaluationKeys, and all failures surface as
 * RemoteError with a machine-readable kind — never a hang, a crash,
 * or undefined behaviour.
 */

#ifndef MORPHLING_EXEC_REMOTE_PROTOCOL_H
#define MORPHLING_EXEC_REMOTE_PROTOCOL_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tfhe/lwe.h"
#include "tfhe/serialize.h"

namespace morphling::exec::remote {

/** First payload word of Hello/HelloAck ("MRPC": Morphling RPC). */
constexpr std::uint32_t kProtocolMagic = 0x4D525043;

/** Protocol version; bumped on any frame-layout change. A mismatch is
 *  rejected at the handshake, before any request bytes flow. */
constexpr std::uint32_t kProtocolVersion = 2;

/** Upper bound on one frame's payload. Generous enough for a full
 *  evaluation-key enrollment (BSK dominates, tens of MiB for
 *  production sets) while bounding what a hostile peer can make the
 *  receiver allocate. */
constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/** Frame types. */
enum class FrameType : std::uint8_t
{
    kHello = 1,      //!< client -> server: magic + version
    kHelloAck = 2,   //!< server -> client: magic + version
    kExecute = 3,    //!< client -> server: one execution request
    // 4 stays unassigned: frame numbers are never reused across
    // protocol versions.
    kResult = 5,     //!< server -> client: outputs + retirement log
    kError = 6,      //!< server -> client: typed failure
    kEnrollKeys = 7, //!< client -> server: serialized EvaluationKeys
    kEnrollAck = 8   //!< server -> client: fingerprint of stored keys
};

/** Wire error codes carried by kError frames. */
enum class WireErrorCode : std::uint32_t
{
    kVersionMismatch = 1, //!< handshake magic/version disagreement
    kMalformedFrame = 2,  //!< frame or payload failed validation
    kUnknownKey = 3,      //!< request names an unenrolled fingerprint
    kBadProgram = 4,      //!< program rejected (decode or shape)
    kExecutionFailed = 5  //!< server-side execution raised an error
};

/** What went wrong, from the client's perspective. */
enum class RemoteErrorKind
{
    kConnectFailed,   //!< TCP connect refused / unreachable
    kTimeout,         //!< per-request deadline expired
    kConnectionLost,  //!< peer closed or reset mid-exchange
    kMalformedFrame,  //!< frame failed structural validation
    kVersionMismatch, //!< handshake rejected
    kUnknownKey,      //!< server does not hold the request's keys
    kBadProgram,      //!< server rejected the shipped program
    kServerError,     //!< server-side execution failure
    kProtocol         //!< unexpected frame sequence
};

const char *remoteErrorKindName(RemoteErrorKind kind);

/**
 * The typed error every remote failure surfaces as. kind() is the
 * machine-readable classification (retry policy keys off it); what()
 * carries the human diagnostic, including the server's message for
 * server-reported failures.
 */
class RemoteError : public std::runtime_error
{
  public:
    RemoteError(RemoteErrorKind kind, const std::string &message);

    RemoteErrorKind kind() const { return kind_; }

  private:
    RemoteErrorKind kind_;
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::kError;
    std::vector<std::uint8_t> payload;
};

/** Append-only little-endian payload builder. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    void bytes(const void *data, std::size_t size);

    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked payload reader: every read past the end throws
 * RemoteError(kMalformedFrame) — a truncated or lying payload can
 * never read out of bounds or be silently misinterpreted.
 */
class WireReader
{
  public:
    explicit WireReader(const std::vector<std::uint8_t> &payload)
        : data_(payload.data()), size_(payload.size())
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    void bytes(void *out, std::size_t size);

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** kMalformedFrame unless the payload was fully consumed (catches
     *  frames padded with trailing garbage). */
    void expectEnd() const;

  private:
    void need(std::size_t size) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** @{ Domain objects on the wire (shared by client and server). */
void writeCiphertext(WireWriter &w, const tfhe::LweCiphertext &ct);
tfhe::LweCiphertext readCiphertext(WireReader &r);

void writeTorusVector(WireWriter &w,
                      const std::vector<tfhe::Torus32> &values);
std::vector<tfhe::Torus32> readTorusVector(WireReader &r);

void writeWordVector(WireWriter &w,
                     const std::vector<std::uint64_t> &words);
std::vector<std::uint64_t> readWordVector(WireReader &r);

/** A kEnrollKeys payload: the keys serialized straight into one
 *  exactly-sized buffer. The blob runs to megabytes, so every extra
 *  copy on either side of an enrollment raises the process's peak
 *  memory. */
std::vector<std::uint8_t>
encodeEvaluationKeys(const tfhe::EvaluationKeys &keys);

/** Parse a kEnrollKeys payload in place (tfhe::tryLoadEvaluationKeys
 *  over the payload bytes, no copy); nullopt with `error` set when the
 *  blob is malformed. */
std::optional<tfhe::EvaluationKeys>
decodeEvaluationKeys(const std::vector<std::uint8_t> &payload,
                     std::string *error);
/** @} */

/** Deadline type used across the transport: every blocking socket
 *  operation takes one and throws RemoteError(kTimeout) at expiry. */
using Deadline = std::chrono::steady_clock::time_point;

/** A deadline `timeout` from now. */
Deadline deadlineAfter(std::chrono::milliseconds timeout);

/**
 * RAII TCP socket. Non-copyable; closing is idempotent. shutdownBoth()
 * is safe from another thread and unblocks a blocked peer loop (how
 * the server interrupts its connections on stop()).
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept;
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    void close();
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** Connect to host:port or throw RemoteError(kConnectFailed); the
 *  attempt itself is bounded by `timeout`. */
Socket connectTcp(const std::string &host, std::uint16_t port,
                  std::chrono::milliseconds timeout);

/** Send one frame, throwing kTimeout past the deadline and
 *  kConnectionLost when the peer resets. */
void sendFrame(const Socket &socket, FrameType type,
               const std::vector<std::uint8_t> &payload,
               Deadline deadline);

/**
 * Receive one frame. Throws kTimeout past the deadline,
 * kConnectionLost on a peer close or reset mid-frame (a truncated
 * frame is indistinguishable from a dropped connection and is treated
 * as one), and kMalformedFrame on an oversized payload length or an
 * unknown frame type.
 */
Frame recvFrame(const Socket &socket, Deadline deadline);

/** True when the peer closed cleanly before any byte of a next frame
 *  (end of a well-behaved connection); otherwise behaves like
 *  recvFrame. The server's per-connection loop uses this to tell a
 *  clean goodbye from a mid-frame drop. */
bool recvFrameOrClose(const Socket &socket, Deadline deadline,
                      Frame &out);

/** @{ Handshake helpers. */
void sendHello(const Socket &socket, FrameType type, Deadline deadline);

/** Validate a Hello/HelloAck payload; throws kVersionMismatch on a
 *  magic or version disagreement. */
void checkHello(const Frame &frame, FrameType expected);
/** @} */

/** Encode/send one kError frame (server side). */
void sendError(const Socket &socket, WireErrorCode code,
               const std::string &message, Deadline deadline);

/** Decode a kError frame into the RemoteError it implies. */
RemoteError decodeError(const Frame &frame);

} // namespace morphling::exec::remote

#endif // MORPHLING_EXEC_REMOTE_PROTOCOL_H
