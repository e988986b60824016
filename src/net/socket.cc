#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace tailguard::net {

namespace {
std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}
}  // namespace

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_tcp_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ScopedFd listen_tcp(std::uint16_t port, std::string* error) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = errno_string("socket");
    return {};
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = errno_string("bind");
    return {};
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    *error = errno_string("listen");
    return {};
  }
  if (!set_nonblocking(fd.get())) {
    *error = errno_string("fcntl");
    return {};
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

ScopedFd connect_tcp(const std::string& host, std::uint16_t port,
                     std::string* error) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = errno_string("socket");
    return {};
  }
  if (!set_nonblocking(fd.get())) {
    *error = errno_string("fcntl");
    return {};
  }
  set_tcp_nodelay(fd.get());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid IPv4 address: " + host;
    return {};
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    *error = errno_string("connect");
    return {};
  }
  return fd;
}

bool connect_finished(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0;
}

WakePipe::WakePipe() {
  int fds[2];
  TG_CHECK_MSG(::pipe(fds) == 0, "pipe() failed");
  read_end_.reset(fds[0]);
  write_end_.reset(fds[1]);
  set_nonblocking(read_end_.get());
  set_nonblocking(write_end_.get());
}

void WakePipe::wake() {
  const char b = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] ssize_t n = ::write(write_end_.get(), &b, 1);
}

void WakePipe::drain() {
  // A short read emptied the pipe. Anything written since then keeps the
  // read end readable, and both poller backends are level-triggered, so
  // the next wait reports it: no read that would only return EAGAIN.
  char buf[256];
  while (::read(read_end_.get(), buf, sizeof(buf)) ==
         static_cast<ssize_t>(sizeof(buf))) {
  }
}

DeadlineTimer::DeadlineTimer()
    : fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
  TG_CHECK_MSG(fd_.valid(), errno_string("timerfd_create"));
}

void DeadlineTimer::arm_at(Clock::time_point when) {
  if (when == armed_) return;
  armed_ = when;
  itimerspec spec{};  // all zero: disarm
  if (when != Clock::time_point::max()) {
    const auto since_boot_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            when.time_since_epoch())
            .count();
    spec.it_value.tv_sec = since_boot_ns / 1'000'000'000;
    spec.it_value.tv_nsec = since_boot_ns % 1'000'000'000;
  }
  ::timerfd_settime(fd_.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
}

void DeadlineTimer::drain() {
  std::uint64_t expirations = 0;
  [[maybe_unused]] ssize_t n =
      ::read(fd_.get(), &expirations, sizeof(expirations));
  armed_ = Clock::time_point::max();
}

}  // namespace tailguard::net
