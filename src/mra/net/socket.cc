#include "mra/net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "mra/fault/failpoint.h"

namespace mra {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

// poll() one fd for POLLIN; true = readable, false = timeout.
Result<bool> PollIn(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("poll");
  if (rc == 0) return false;
  if (pfd.revents & POLLNVAL) return Status::IoError("poll: closed fd");
  return true;
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &info);
  if (rc != 0) {
    return Status::IoError("cannot resolve " + host + ": " +
                           ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for " + host);
  for (struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(info);
      return Socket(fd);
    }
    last = Errno("connect to " + host + ":" + port_str);
    ::close(fd);
  }
  ::freeaddrinfo(info);
  return last;
}

Status Socket::SendAll(std::string_view data) {
  // Failpoint `net.send`: `error` fails before any byte leaves, `torn(N)`
  // sends only the first N bytes and then fails — the peer sees a
  // truncated frame, exactly as if this endpoint died mid-send.
  static fault::Failpoint* fp_send =
      fault::FaultRegistry::Global().Get("net.send");

  if (fd_ < 0) return Status::IoError("send on closed socket");
  fault::Failpoint::Outcome fo = fp_send->Hit();
  if (fo.kind == fault::ActionKind::kError) return fp_send->InjectedError();
  bool torn = fo.kind == fault::ActionKind::kTorn;
  if (torn) data = data.substr(0, std::min<size_t>(fo.keep_bytes, data.size()));
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as a
    // Status, not kill the server process with SIGPIPE.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  // A torn send delivers its prefix, then reports the transport failure.
  return torn ? fp_send->InjectedError() : Status::OK();
}

Result<std::string> Socket::RecvExact(size_t n, int timeout_ms) {
  // Failpoint `net.recv`: `error` fails the read (the connection state is
  // then unknown, as after a real transport fault); `delay(MS)` stalls.
  static fault::Failpoint* fp_recv =
      fault::FaultRegistry::Global().Get("net.recv");

  if (fd_ < 0) return Status::IoError("recv on closed socket");
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(fp_recv));
  std::string out;
  out.resize(n);
  size_t got = 0;
  while (got < n) {
    MRA_ASSIGN_OR_RETURN(bool readable, PollIn(fd_, timeout_ms));
    if (!readable) return Status::IoError("recv timed out");
    ssize_t r = ::recv(fd_, out.data() + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (r == 0) return Status::IoError("connection closed by peer");
    got += static_cast<size_t>(r);
  }
  return out;
}

Result<bool> Socket::WaitReadable(int timeout_ms) {
  if (fd_ < 0) return Status::IoError("wait on closed socket");
  return PollIn(fd_, timeout_ms);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Result<Listener> Listener::Bind(const std::string& host, uint16_t port,
                                int backlog) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* info = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                         port_str.c_str(), &hints, &info);
  if (rc != 0) {
    return Status::IoError("cannot resolve " + host + ": " +
                           ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses to bind for " + host);
  for (struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last = Errno("bind/listen on " + host + ":" + port_str);
      ::close(fd);
      continue;
    }
    // Recover the actual port (meaningful when binding port 0).
    struct sockaddr_storage addr;
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      &addr_len) != 0) {
      last = Errno("getsockname");
      ::close(fd);
      continue;
    }
    Listener out;
    out.fd_ = fd;
    if (addr.ss_family == AF_INET) {
      out.port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    } else {
      out.port_ =
          ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
    }
    ::freeaddrinfo(info);
    return out;
  }
  ::freeaddrinfo(info);
  return last;
}

Result<bool> Listener::WaitAcceptable(int timeout_ms) {
  if (fd_ < 0) return Status::IoError("wait on closed listener");
  return PollIn(fd_, timeout_ms);
}

Result<Socket> Listener::Accept() {
  if (fd_ < 0) return Status::IoError("accept on closed listener");
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Errno("accept");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace mra
