// Thin RAII wrappers over POSIX TCP sockets: a connected stream socket
// with timeout-aware exact-size reads, and a listener with poll-based
// accept so server threads can notice a shutdown flag between waits.
// Everything reports failures through Status — no exceptions, no errno
// leaks past this layer.

#ifndef MRA_NET_SOCKET_H_
#define MRA_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "mra/common/result.h"

namespace mra {
namespace net {

/// A connected TCP stream socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric or resolvable host).  SIGPIPE is
  /// disabled per-send, and TCP_NODELAY is set: frames are whole logical
  /// messages, so Nagle only adds latency.
  static Result<Socket> Connect(const std::string& host, uint16_t port);

  /// Writes all of `data`, retrying short writes.
  Status SendAll(std::string_view data);

  /// Reads exactly `n` bytes.  `timeout_ms` bounds the wait for *each*
  /// chunk (< 0 blocks indefinitely); an expired wait is IoError
  /// "timed out", a peer close mid-read is IoError "closed".
  Result<std::string> RecvExact(size_t n, int timeout_ms);

  /// Waits until the socket is readable (data or EOF): true = readable,
  /// false = the timeout elapsed with nothing to read.
  Result<bool> WaitReadable(int timeout_ms);

  void Close();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// A listening TCP socket (move-only; closes on destruction).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds host:port and listens.  Port 0 picks an ephemeral port;
  /// `port()` reports the resolved one.  `backlog` is the kernel accept
  /// queue bound — the server's backpressure buffer.
  static Result<Listener> Bind(const std::string& host, uint16_t port,
                               int backlog);

  /// Waits for a pending connection: true = Accept() will not block.
  Result<bool> WaitAcceptable(int timeout_ms);

  /// Accepts one pending connection (call after WaitAcceptable).
  Result<Socket> Accept();

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace mra

#endif  // MRA_NET_SOCKET_H_
