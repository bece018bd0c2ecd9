#include "remote_protocol.h"

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/logging.h"

namespace morphling::exec::remote {

namespace {

[[noreturn]] void
throwErrno(RemoteErrorKind kind, const char *what)
{
    throw RemoteError(kind, detail::concat(what, ": ",
                                           std::strerror(errno)));
}

/** Milliseconds until the deadline, clamped at zero; throws kTimeout
 *  once it has passed. */
int
remainingMs(Deadline deadline)
{
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
        throw RemoteError(RemoteErrorKind::kTimeout,
                          "request deadline expired");
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now).count();
    // poll() takes an int; a deadline years out still polls sanely.
    return static_cast<int>(std::min<long long>(ms + 1, 1 << 30));
}

/** Wait until the socket is ready for `events` or the deadline
 *  passes. POLLERR/POLLHUP wake the subsequent recv/send, which then
 *  reports the real condition. */
void
pollOrTimeout(int fd, short events, Deadline deadline)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, remainingMs(deadline));
    if (rc < 0) {
        if (errno == EINTR)
            return;
        throwErrno(RemoteErrorKind::kConnectionLost, "poll failed");
    }
    if (rc == 0) {
        throw RemoteError(RemoteErrorKind::kTimeout,
                          "request deadline expired");
    }
}

void
sendAll(const Socket &socket, const void *data, std::size_t size,
        Deadline deadline)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < size) {
        pollOrTimeout(socket.fd(), POLLOUT, deadline);
        const ssize_t n = ::send(socket.fd(), p + sent, size - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR) {
                continue;
            }
            throwErrno(RemoteErrorKind::kConnectionLost, "send failed");
        }
        sent += static_cast<std::size_t>(n);
    }
}

/**
 * Read exactly `size` bytes. When `allowCleanClose` and the peer
 * closed before the first byte, returns false (end of connection);
 * a close after any byte arrived is a truncated frame and throws
 * kConnectionLost.
 */
bool
recvExact(const Socket &socket, void *data, std::size_t size,
          Deadline deadline, bool allowCleanClose)
{
    auto *p = static_cast<std::uint8_t *>(data);
    std::size_t got = 0;
    while (got < size) {
        pollOrTimeout(socket.fd(), POLLIN, deadline);
        const ssize_t n = ::recv(socket.fd(), p + got, size - got, 0);
        if (n == 0) {
            if (allowCleanClose && got == 0)
                return false;
            throw RemoteError(RemoteErrorKind::kConnectionLost,
                              "connection closed mid-frame");
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR) {
                continue;
            }
            throwErrno(RemoteErrorKind::kConnectionLost, "recv failed");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    panic_if(flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0,
             "fcntl(O_NONBLOCK) failed: ", std::strerror(errno));
}

bool
validFrameType(std::uint8_t type)
{
    switch (static_cast<FrameType>(type)) {
      case FrameType::kHello:
      case FrameType::kHelloAck:
      case FrameType::kExecute:
      case FrameType::kResult:
      case FrameType::kError:
      case FrameType::kEnrollKeys:
      case FrameType::kEnrollAck:
        return true;
    }
    return false;
}

bool
recvFrameImpl(const Socket &socket, Deadline deadline, Frame &out,
              bool allowCleanClose)
{
    std::uint8_t header[5];
    if (!recvExact(socket, header, sizeof(header), deadline,
                   allowCleanClose)) {
        return false;
    }
    std::uint32_t payload_size = 0;
    std::memcpy(&payload_size, header, sizeof(payload_size));
    if (payload_size > kMaxFramePayload) {
        throw RemoteError(
            RemoteErrorKind::kMalformedFrame,
            detail::concat("frame payload of ", payload_size,
                           " bytes exceeds the ", kMaxFramePayload,
                           "-byte cap"));
    }
    if (!validFrameType(header[4])) {
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          detail::concat("unknown frame type ",
                                         unsigned{header[4]}));
    }
    out.type = static_cast<FrameType>(header[4]);
    out.payload.resize(payload_size);
    if (payload_size > 0) {
        recvExact(socket, out.payload.data(), payload_size, deadline,
                  false);
    }
    return true;
}

} // namespace

const char *
remoteErrorKindName(RemoteErrorKind kind)
{
    switch (kind) {
      case RemoteErrorKind::kConnectFailed:
        return "connect-failed";
      case RemoteErrorKind::kTimeout:
        return "timeout";
      case RemoteErrorKind::kConnectionLost:
        return "connection-lost";
      case RemoteErrorKind::kMalformedFrame:
        return "malformed-frame";
      case RemoteErrorKind::kVersionMismatch:
        return "version-mismatch";
      case RemoteErrorKind::kUnknownKey:
        return "unknown-key";
      case RemoteErrorKind::kBadProgram:
        return "bad-program";
      case RemoteErrorKind::kServerError:
        return "server-error";
      case RemoteErrorKind::kProtocol:
        return "protocol";
    }
    return "unknown";
}

RemoteError::RemoteError(RemoteErrorKind kind, const std::string &message)
    : std::runtime_error(detail::concat("remote backend [",
                                        remoteErrorKindName(kind),
                                        "]: ", message)),
      kind_(kind)
{
}

void
WireWriter::u32(std::uint32_t v)
{
    bytes(&v, sizeof(v));
}

void
WireWriter::u64(std::uint64_t v)
{
    bytes(&v, sizeof(v));
}

void
WireWriter::f64(double v)
{
    bytes(&v, sizeof(v));
}

void
WireWriter::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + size);
}

void
WireReader::need(std::size_t size) const
{
    if (size_ - pos_ < size) {
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          detail::concat("payload truncated: need ",
                                         size, " bytes, have ",
                                         size_ - pos_));
    }
}

std::uint8_t
WireReader::u8()
{
    need(1);
    return data_[pos_++];
}

std::uint32_t
WireReader::u32()
{
    std::uint32_t v = 0;
    bytes(&v, sizeof(v));
    return v;
}

std::uint64_t
WireReader::u64()
{
    std::uint64_t v = 0;
    bytes(&v, sizeof(v));
    return v;
}

double
WireReader::f64()
{
    double v = 0;
    bytes(&v, sizeof(v));
    return v;
}

void
WireReader::bytes(void *out, std::size_t size)
{
    need(size);
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
}

void
WireReader::expectEnd() const
{
    if (pos_ != size_) {
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          detail::concat(size_ - pos_,
                                         " trailing bytes in payload"));
    }
}

void
writeCiphertext(WireWriter &w, const tfhe::LweCiphertext &ct)
{
    w.u32(ct.dimension());
    w.bytes(ct.raw().data(), ct.raw().size() * sizeof(tfhe::Torus32));
}

tfhe::LweCiphertext
readCiphertext(WireReader &r)
{
    const std::uint32_t dim = r.u32();
    if (dim == 0 || dim > (1u << 24)) {
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          detail::concat("implausible LWE dimension ",
                                         dim));
    }
    tfhe::LweCiphertext ct(dim);
    r.bytes(ct.raw().data(), ct.raw().size() * sizeof(tfhe::Torus32));
    return ct;
}

void
writeTorusVector(WireWriter &w, const std::vector<tfhe::Torus32> &values)
{
    w.u32(static_cast<std::uint32_t>(values.size()));
    w.bytes(values.data(), values.size() * sizeof(tfhe::Torus32));
}

std::vector<tfhe::Torus32>
readTorusVector(WireReader &r)
{
    const std::uint32_t count = r.u32();
    if (count > (1u << 20)) {
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          detail::concat("implausible torus vector of ",
                                         count, " entries"));
    }
    std::vector<tfhe::Torus32> values(count);
    r.bytes(values.data(), values.size() * sizeof(tfhe::Torus32));
    return values;
}

void
writeWordVector(WireWriter &w, const std::vector<std::uint64_t> &words)
{
    w.u64(words.size());
    w.bytes(words.data(), words.size() * sizeof(std::uint64_t));
}

std::vector<std::uint64_t>
readWordVector(WireReader &r)
{
    const std::uint64_t count = r.u64();
    if (count > (1u << 24)) {
        throw RemoteError(RemoteErrorKind::kMalformedFrame,
                          detail::concat("implausible word vector of ",
                                         count, " entries"));
    }
    std::vector<std::uint64_t> words(count);
    r.bytes(words.data(), words.size() * sizeof(std::uint64_t));
    return words;
}

namespace {

/** Output stream buffer appending to a byte vector. */
class PayloadWriteBuf final : public std::streambuf
{
  public:
    explicit PayloadWriteBuf(std::vector<std::uint8_t> &out) : out_(out) {}

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof())
            out_.push_back(static_cast<std::uint8_t>(ch));
        return ch;
    }

    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        out_.insert(out_.end(), data, data + n);
        return n;
    }

  private:
    std::vector<std::uint8_t> &out_;
};

/** Input stream buffer reading a byte vector in place. The get area is
 *  never written through: the default pbackfail refuses a putback of a
 *  different character. */
class PayloadReadBuf final : public std::streambuf
{
  public:
    explicit PayloadReadBuf(const std::vector<std::uint8_t> &payload)
    {
        char *begin = const_cast<char *>(
            reinterpret_cast<const char *>(payload.data()));
        setg(begin, begin, begin + payload.size());
    }
};

} // namespace

std::vector<std::uint8_t>
encodeEvaluationKeys(const tfhe::EvaluationKeys &keys)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(tfhe::evaluationKeysWireBytes(keys));
    PayloadWriteBuf buf(payload);
    std::ostream os(&buf);
    tfhe::saveEvaluationKeys(os, keys);
    return payload;
}

std::optional<tfhe::EvaluationKeys>
decodeEvaluationKeys(const std::vector<std::uint8_t> &payload,
                     std::string *error)
{
    PayloadReadBuf buf(payload);
    std::istream is(&buf);
    return tfhe::tryLoadEvaluationKeys(is, error);
}

Deadline
deadlineAfter(std::chrono::milliseconds timeout)
{
    return std::chrono::steady_clock::now() + timeout;
}

Socket::Socket(Socket &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Socket
connectTcp(const std::string &host, std::uint16_t port,
           std::chrono::milliseconds timeout)
{
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    const std::string port_str = std::to_string(port);
    const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                                 &res);
    if (rc != 0) {
        throw RemoteError(RemoteErrorKind::kConnectFailed,
                          detail::concat("cannot resolve ", host, ": ",
                                         ::gai_strerror(rc)));
    }

    const Deadline deadline = deadlineAfter(timeout);
    std::string last_error = "no addresses";
    for (struct addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        Socket socket(::socket(ai->ai_family, ai->ai_socktype,
                               ai->ai_protocol));
        if (!socket.valid()) {
            last_error = std::strerror(errno);
            continue;
        }
        setNonBlocking(socket.fd());
        const int one = 1;
        ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        if (::connect(socket.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
            ::freeaddrinfo(res);
            return socket;
        }
        if (errno != EINPROGRESS) {
            last_error = std::strerror(errno);
            continue;
        }
        try {
            pollOrTimeout(socket.fd(), POLLOUT, deadline);
        } catch (const RemoteError &) {
            last_error = "connect timed out";
            continue;
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &so_error,
                         &len) == 0 &&
            so_error == 0) {
            ::freeaddrinfo(res);
            return socket;
        }
        last_error = std::strerror(so_error);
    }
    ::freeaddrinfo(res);
    throw RemoteError(RemoteErrorKind::kConnectFailed,
                      detail::concat("cannot connect to ", host, ":",
                                     port, ": ", last_error));
}

void
sendFrame(const Socket &socket, FrameType type,
          const std::vector<std::uint8_t> &payload, Deadline deadline)
{
    panic_if(payload.size() > kMaxFramePayload,
             "attempted to send an oversized frame");
    std::uint8_t header[5];
    const auto payload_size =
        static_cast<std::uint32_t>(payload.size());
    std::memcpy(header, &payload_size, sizeof(payload_size));
    header[4] = static_cast<std::uint8_t>(type);
    sendAll(socket, header, sizeof(header), deadline);
    if (!payload.empty())
        sendAll(socket, payload.data(), payload.size(), deadline);
}

Frame
recvFrame(const Socket &socket, Deadline deadline)
{
    Frame frame;
    if (!recvFrameImpl(socket, deadline, frame, false)) {
        throw RemoteError(RemoteErrorKind::kConnectionLost,
                          "connection closed");
    }
    return frame;
}

bool
recvFrameOrClose(const Socket &socket, Deadline deadline, Frame &out)
{
    return recvFrameImpl(socket, deadline, out, true);
}

void
sendHello(const Socket &socket, FrameType type, Deadline deadline)
{
    WireWriter w;
    w.u32(kProtocolMagic);
    w.u32(kProtocolVersion);
    sendFrame(socket, type, w.take(), deadline);
}

void
checkHello(const Frame &frame, FrameType expected)
{
    if (frame.type == FrameType::kError)
        throw decodeError(frame);
    if (frame.type != expected) {
        throw RemoteError(RemoteErrorKind::kProtocol,
                          "peer did not open with a handshake frame");
    }
    WireReader r(frame.payload);
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    r.expectEnd();
    if (magic != kProtocolMagic) {
        throw RemoteError(RemoteErrorKind::kVersionMismatch,
                          "peer is not a Morphling remote endpoint");
    }
    if (version != kProtocolVersion) {
        throw RemoteError(
            RemoteErrorKind::kVersionMismatch,
            detail::concat("peer speaks protocol version ", version,
                           ", this build speaks ", kProtocolVersion));
    }
}

void
sendError(const Socket &socket, WireErrorCode code,
          const std::string &message, Deadline deadline)
{
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(code));
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.bytes(message.data(), message.size());
    sendFrame(socket, FrameType::kError, w.take(), deadline);
}

RemoteError
decodeError(const Frame &frame)
{
    WireReader r(frame.payload);
    const std::uint32_t code = r.u32();
    const std::uint32_t length = r.u32();
    std::string message(length, '\0');
    r.bytes(message.data(), length);

    RemoteErrorKind kind = RemoteErrorKind::kServerError;
    switch (static_cast<WireErrorCode>(code)) {
      case WireErrorCode::kVersionMismatch:
        kind = RemoteErrorKind::kVersionMismatch;
        break;
      case WireErrorCode::kMalformedFrame:
        kind = RemoteErrorKind::kMalformedFrame;
        break;
      case WireErrorCode::kUnknownKey:
        kind = RemoteErrorKind::kUnknownKey;
        break;
      case WireErrorCode::kBadProgram:
        kind = RemoteErrorKind::kBadProgram;
        break;
      case WireErrorCode::kExecutionFailed:
        kind = RemoteErrorKind::kServerError;
        break;
    }
    return RemoteError(kind,
                       detail::concat("server reported: ", message));
}

} // namespace morphling::exec::remote
