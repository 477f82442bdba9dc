#include "util/ipc.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/chaos.hpp"
#include "util/metrics.hpp"

namespace rfsm::ipc {
namespace {

/// Poll slice: the longest a blocked read/accept goes without re-checking
/// its cancel token.  Bounds cancellation latency, not throughput.
constexpr int kPollSliceMs = 50;

std::string errnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Waits for readability; honours the cancel token.  Returns false on
/// timeout/cancel, true when `fd` is readable (or hung up — the subsequent
/// read reports EOF).
bool pollReadable(int fd, const CancelToken* cancel) {
  for (;;) {
    if (cancel != nullptr && cancel->expired()) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, cancel == nullptr ? -1 : kPollSliceMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw IpcError(errnoString("poll"));
    }
    if (rc > 0) return true;
  }
}

/// Reads exactly `count` bytes.  Returns false on EOF at a byte boundary
/// *or mid-buffer* (a torn frame from a killed peer is an EOF, not an
/// error); nullopt-style timeout is signalled by throwing TimeoutTag.
struct TimeoutTag {};

bool readExact(int fd, void* buffer, std::size_t count,
               const CancelToken* cancel) {
  auto* out = static_cast<char*>(buffer);
  std::size_t done = 0;
  while (done < count) {
    if (!pollReadable(fd, cancel)) throw TimeoutTag{};
    const ssize_t n = ::read(fd, out + done, count - done);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw IpcError(errnoString("read"));
    }
    if (n == 0) return false;  // peer closed (possibly mid-frame)
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void writeExact(int fd, const void* buffer, std::size_t count) {
  const auto* in = static_cast<const char*>(buffer);
  std::size_t done = 0;
  while (done < count) {
    const ssize_t n = ::write(fd, in + done, count - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IpcError(errnoString("write"));
    }
    done += static_cast<std::size_t>(n);
  }
}

void setCloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Injected stalls are a fixed, bounded delay: long enough to exercise the
/// poll-sliced deadline machinery, short enough that every caller's
/// timeout budget absorbs it.
constexpr int kChaosStallMs = 120;

std::uint32_t loadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void storeLe32(unsigned char* p, std::uint32_t value) {
  p[0] = static_cast<unsigned char>(value);
  p[1] = static_cast<unsigned char>(value >> 8);
  p[2] = static_cast<unsigned char>(value >> 16);
  p[3] = static_cast<unsigned char>(value >> 24);
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void ignoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

std::uint32_t crc32c(std::string_view bytes) {
  // Software CRC32C (Castagnoli, reflected polynomial 0x82f63b78) with a
  // lazily built 256-entry table; frames are small and rare relative to
  // planning work, so a table-per-byte loop is plenty.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ (0x82f63b78u & (~(crc & 1u) + 1u));
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char c : bytes)
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xffu];
  return crc ^ 0xffffffffu;
}

void writeFrame(int fd, std::string_view payload) {
  RFSM_CHECK(payload.size() <= kMaxFrameBytes, "frame too large");
  // The frame is assembled contiguously (header | payload | crc) so chaos
  // can corrupt or duplicate the exact bytes that would hit the wire.
  std::string frame;
  frame.resize(payload.size() + 8);
  auto* bytes = reinterpret_cast<unsigned char*>(frame.data());
  storeLe32(bytes, static_cast<std::uint32_t>(payload.size()));
  std::memcpy(bytes + 4, payload.data(), payload.size());
  storeLe32(bytes + 4 + payload.size(), crc32c(payload));

  if (chaos::plane().enabled()) {
    chaos::FaultPlane& plane = chaos::plane();
    switch (plane.onNetWrite()) {
      case chaos::FaultPlane::NetWriteFault::kNone:
        break;
      case chaos::FaultPlane::NetWriteFault::kReset:
        throw IpcError("write: injected connection reset (chaos)");
      case chaos::FaultPlane::NetWriteFault::kPartial: {
        // A prefix reaches the peer (torn frame on their side), then the
        // sender dies.  Never the whole frame: at most all-but-one byte.
        const std::uint64_t keep =
            plane.drawBelow(chaos::Site::kNetWrite, frame.size());
        writeExact(fd, frame.data(), static_cast<std::size_t>(keep));
        throw IpcError("write: injected partial write of " +
                       std::to_string(keep) + "/" +
                       std::to_string(frame.size()) + " bytes (chaos)");
      }
      case chaos::FaultPlane::NetWriteFault::kStall:
        std::this_thread::sleep_for(std::chrono::milliseconds(kChaosStallMs));
        break;
      case chaos::FaultPlane::NetWriteFault::kDuplicate:
        writeExact(fd, frame.data(), frame.size());
        break;  // falls through to the normal write: the frame ships twice
      case chaos::FaultPlane::NetWriteFault::kCorrupt: {
        // Flip one bit anywhere past the length header (payload or CRC
        // trailer).  Corrupting the length would desynchronize the stream
        // into a hang; the fuzzer covers that case off-wire instead.
        const std::uint64_t offset =
            4 + plane.drawBelow(chaos::Site::kNetWrite, frame.size() - 4);
        const std::uint64_t bit = plane.drawBelow(chaos::Site::kNetWrite, 8);
        frame[static_cast<std::size_t>(offset)] ^=
            static_cast<char>(1u << bit);
        break;
      }
    }
  }
  writeExact(fd, frame.data(), frame.size());
}

ReadStatus readFrame(int fd, std::string& payload,
                     const CancelToken* cancel) {
  if (chaos::plane().enabled()) {
    switch (chaos::plane().onNetRead()) {
      case chaos::FaultPlane::NetReadFault::kNone:
        break;
      case chaos::FaultPlane::NetReadFault::kStall:
        std::this_thread::sleep_for(std::chrono::milliseconds(kChaosStallMs));
        break;
      case chaos::FaultPlane::NetReadFault::kReset:
        throw IpcError("read: injected connection reset (chaos)");
    }
  }
  try {
    unsigned char header[4];
    if (!readExact(fd, header, sizeof header, cancel)) return ReadStatus::kEof;
    const std::uint32_t length = loadLe32(header);
    if (length > kMaxFrameBytes) {
      metrics::counter(metrics::kServiceFramesRejected).add();
      throw FrameError("frame length " + std::to_string(length) +
                       " exceeds the " + std::to_string(kMaxFrameBytes) +
                       "-byte cap (corrupt stream?)");
    }
    payload.resize(length);
    if (length > 0 && !readExact(fd, payload.data(), length, cancel))
      return ReadStatus::kEof;  // torn frame: the peer died mid-write
    unsigned char trailer[4];
    if (!readExact(fd, trailer, sizeof trailer, cancel))
      return ReadStatus::kEof;  // torn trailer: likewise
    const std::uint32_t expected = loadLe32(trailer);
    const std::uint32_t actual = crc32c(payload);
    if (expected != actual) {
      metrics::counter(metrics::kServiceFramesRejected).add();
      throw FrameError("frame CRC mismatch (wire " + std::to_string(expected) +
                       ", computed " + std::to_string(actual) + " over " +
                       std::to_string(length) + " bytes)");
    }
    return ReadStatus::kOk;
  } catch (TimeoutTag) {
    return ReadStatus::kTimeout;
  }
}

bool pendingInput(int fd) {
  struct pollfd pfd = {fd, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, 0);
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

void MessageWriter::u32(std::uint32_t value) {
  for (int k = 0; k < 4; ++k)
    buffer_.push_back(static_cast<char>(value >> (8 * k)));
}

void MessageWriter::u64(std::uint64_t value) {
  for (int k = 0; k < 8; ++k)
    buffer_.push_back(static_cast<char>(value >> (8 * k)));
}

void MessageWriter::i64(std::int64_t value) {
  u64(static_cast<std::uint64_t>(value));
}

void MessageWriter::str(std::string_view value) {
  RFSM_CHECK(value.size() <= kMaxFrameBytes, "string too large for message");
  u32(static_cast<std::uint32_t>(value.size()));
  buffer_.append(value.data(), value.size());
}

const unsigned char* MessageReader::need(std::size_t bytes) {
  if (payload_.size() - pos_ < bytes)
    throw IpcError("truncated message (wanted " + std::to_string(bytes) +
                   " bytes at offset " + std::to_string(pos_) + ", have " +
                   std::to_string(payload_.size() - pos_) + ")");
  const auto* p =
      reinterpret_cast<const unsigned char*>(payload_.data()) + pos_;
  pos_ += bytes;
  return p;
}

std::uint32_t MessageReader::u32() {
  const unsigned char* p = need(4);
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t MessageReader::u64() {
  std::uint64_t value = 0;
  const unsigned char* p = need(8);
  for (int k = 7; k >= 0; --k) value = value << 8 | p[k];
  return value;
}

std::int64_t MessageReader::i64() {
  return static_cast<std::int64_t>(u64());
}

std::string MessageReader::str() {
  const std::uint32_t length = u32();
  if (length > kMaxFrameBytes) throw IpcError("corrupt string length");
  const unsigned char* p = need(length);
  return std::string(reinterpret_cast<const char*>(p), length);
}

std::uint32_t MessageReader::count(std::size_t minBytesPerElement) {
  const std::uint32_t n = u32();
  if (n > remaining() / std::max<std::size_t>(1, minBytesPerElement))
    throw IpcError("corrupt list count " + std::to_string(n) + " (" +
                   std::to_string(remaining()) + " bytes left)");
  return n;
}

void MessageReader::expectEnd() const {
  if (!atEnd())
    throw IpcError("trailing bytes in message (offset " +
                   std::to_string(pos_) + " of " +
                   std::to_string(payload_.size()) + ")");
}

Fd listenUnix(const std::string& path, int backlog) {
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw IpcError("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw IpcError(errnoString("socket"));
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0)
    throw IpcError(errnoString(("bind '" + path + "'").c_str()));
  if (::listen(fd.get(), backlog) != 0)
    throw IpcError(errnoString("listen"));
  return fd;
}

std::optional<Fd> acceptUnix(int listenFd, const CancelToken* cancel) {
  if (!pollReadable(listenFd, cancel)) return std::nullopt;
  const int conn = ::accept(listenFd, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED)
      return std::nullopt;
    throw IpcError(errnoString("accept"));
  }
  setCloexec(conn);
  return Fd(conn);
}

Fd connectUnix(const std::string& path) {
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw IpcError("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw IpcError(errnoString("socket"));
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof addr) != 0)
    throw IpcError(errnoString(("connect '" + path + "'").c_str()));
  return fd;
}

Fd listenTcp(const std::string& host, std::uint16_t port, int backlog) {
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* list = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               std::to_string(port).c_str(), &hints, &list);
  if (rc != 0)
    throw IpcError("resolve '" + host + "': " + ::gai_strerror(rc));
  std::string lastError = "no addresses";
  for (struct addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                   ai->ai_protocol));
    if (!fd.valid()) {
      lastError = errnoString("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      lastError = errnoString("bind");
      continue;
    }
    if (::listen(fd.get(), backlog) != 0) {
      lastError = errnoString("listen");
      continue;
    }
    ::freeaddrinfo(list);
    return fd;
  }
  ::freeaddrinfo(list);
  throw IpcError("listen tcp " + host + ":" + std::to_string(port) + ": " +
                 lastError);
}

Fd connectTcp(const std::string& host, std::uint16_t port,
              std::int64_t timeoutMs) {
  if (timeoutMs <= 0) timeoutMs = 5000;
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* list = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &list);
  if (rc != 0)
    throw IpcError("resolve '" + host + "': " + ::gai_strerror(rc));
  std::string lastError = "no addresses";
  for (struct addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family,
                   ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                   ai->ai_protocol));
    if (!fd.valid()) {
      lastError = errnoString("socket");
      continue;
    }
    // Non-blocking connect bounded by poll: a dropped host costs the
    // timeout, never a wedged shard thread.
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      if (errno != EINPROGRESS) {
        lastError = errnoString("connect");
        continue;
      }
      struct pollfd pfd = {fd.get(), POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeoutMs));
      if (ready <= 0) {
        lastError = ready == 0 ? "connect timed out" : errnoString("poll");
        continue;
      }
      int soError = 0;
      socklen_t len = sizeof soError;
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soError, &len) != 0 ||
          soError != 0) {
        lastError =
            std::string("connect: ") + std::strerror(soError ? soError : errno);
        continue;
      }
    }
    // Back to blocking for the frame I/O (reads are poll-sliced anyway).
    const int flags = ::fcntl(fd.get(), F_GETFL);
    if (flags >= 0) ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK);
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::freeaddrinfo(list);
    return fd;
  }
  ::freeaddrinfo(list);
  throw IpcError("connect tcp " + host + ":" + std::to_string(port) + ": " +
                 lastError);
}

std::uint16_t localTcpPort(int fd) {
  struct sockaddr_storage addr = {};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0)
    throw IpcError(errnoString("getsockname"));
  if (addr.ss_family == AF_INET)
    return ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
  if (addr.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
  throw IpcError("getsockname: not a TCP socket");
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

namespace {

/// Parses "host:port" (the last ':' splits, so IPv6 literals keep their
/// colons); throws IpcError on a malformed port.
Endpoint tcpEndpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 == text.size())
    throw IpcError("malformed TCP endpoint '" + text + "' (want host:port)");
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kTcp;
  endpoint.host = text.substr(0, colon);
  if (endpoint.host.empty())
    throw IpcError("malformed TCP endpoint '" + text + "' (empty host)");
  const std::string portText = text.substr(colon + 1);
  long port = 0;
  try {
    std::size_t used = 0;
    port = std::stol(portText, &used);
    if (used != portText.size()) throw std::invalid_argument(portText);
  } catch (const std::exception&) {
    throw IpcError("malformed TCP endpoint '" + text + "' (bad port '" +
                   portText + "')");
  }
  if (port < 0 || port > 65535)
    throw IpcError("TCP port out of range in '" + text + "'");
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

}  // namespace

Endpoint parseEndpoint(const std::string& text) {
  if (text.empty()) throw IpcError("empty endpoint");
  if (text.rfind("unix:", 0) == 0) {
    Endpoint endpoint;
    endpoint.path = text.substr(5);
    if (endpoint.path.empty())
      throw IpcError("malformed Unix endpoint '" + text + "' (empty path)");
    return endpoint;
  }
  if (text.rfind("tcp:", 0) == 0) return tcpEndpoint(text.substr(4));
  // Unprefixed: a path if it looks like one, host:port otherwise.
  if (text.find('/') != std::string::npos || text.find(':') == std::string::npos) {
    Endpoint endpoint;
    endpoint.path = text;
    return endpoint;
  }
  return tcpEndpoint(text);
}

std::vector<Endpoint> parseEndpointList(const std::string& text) {
  std::vector<Endpoint> endpoints;
  std::string item;
  const auto flush = [&] {
    if (!item.empty()) endpoints.push_back(parseEndpoint(item));
    item.clear();
  };
  for (const char c : text) {
    if (c == ',' || c == ' ' || c == '\t' || c == '\n')
      flush();
    else
      item.push_back(c);
  }
  flush();
  return endpoints;
}

Fd connectEndpoint(const Endpoint& endpoint, std::int64_t timeoutMs) {
  if (chaos::plane().enabled() && chaos::plane().onConnect())
    throw IpcError("connect " + endpoint.describe() +
                   ": injected connection reset (chaos)");
  if (endpoint.kind == Endpoint::Kind::kUnix)
    return connectUnix(endpoint.path);
  return connectTcp(endpoint.host, endpoint.port, timeoutMs);
}

Fd listenEndpoint(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == Endpoint::Kind::kUnix)
    return listenUnix(endpoint.path, backlog);
  return listenTcp(endpoint.host, endpoint.port, backlog);
}

ChildProcess spawnWorker(const std::vector<std::string>& command) {
  RFSM_CHECK(!command.empty(), "worker command must not be empty");
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw IpcError(errnoString("socketpair"));
  Fd parentEnd(sv[0]);
  Fd childEnd(sv[1]);

  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& arg : command)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const int pid = ::fork();
  if (pid < 0) throw IpcError(errnoString("fork"));
  if (pid == 0) {
    // Child: install the channel as kWorkerChannelFd and exec.  Only
    // async-signal-safe calls between fork and exec (the parent is
    // multi-threaded).
    if (childEnd.get() == kWorkerChannelFd) {
      ::fcntl(kWorkerChannelFd, F_SETFD, 0);  // clear CLOEXEC in place
    } else {
      if (::dup2(childEnd.get(), kWorkerChannelFd) < 0) ::_exit(127);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees EOF on the channel
  }
  return ChildProcess{pid, std::move(parentEnd)};
}

bool childAlive(int pid, int* status) {
  if (pid < 0) return false;
  int local = 0;
  const int rc = ::waitpid(pid, &local, WNOHANG);
  if (rc == 0) return true;
  if (status != nullptr) *status = local;
  return false;  // exited (rc == pid) or already reaped/invalid (rc < 0)
}

void killChild(int pid) {
  if (pid < 0) return;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace rfsm::ipc
