// Thin POSIX TCP helpers for the networked runtime: RAII fds, non-blocking
// listen/connect, a self-pipe for waking a poll() loop from other threads,
// and a timerfd for waking it at a precise time. Everything reports errors
// via std::string out-params rather than exceptions — a refused connection
// is a normal event for the dispatcher's reconnect loop, not a programming
// error.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

namespace tailguard::net {

/// Owns a file descriptor; closes on destruction. -1 means empty.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Puts `fd` in non-blocking mode. Returns false on failure.
bool set_nonblocking(int fd);

/// Disables Nagle; best-effort (loopback works either way, latency does not).
void set_tcp_nodelay(int fd);

/// Creates a non-blocking IPv4 listen socket bound to 127.0.0.1:`port`
/// (port 0 = kernel-assigned) with SO_REUSEADDR. Returns an empty fd and
/// fills `error` on failure.
ScopedFd listen_tcp(std::uint16_t port, std::string* error);

/// Local port a bound socket ended up on (resolves port 0).
std::uint16_t local_port(int fd);

/// Starts a non-blocking IPv4 connect to host:port. The connection may still
/// be in progress on return — poll for writability and check
/// `connect_finished`. Returns an empty fd on immediate failure.
ScopedFd connect_tcp(const std::string& host, std::uint16_t port,
                     std::string* error);

/// After a non-blocking connect signalled writability: true iff the
/// connection actually established (SO_ERROR == 0).
bool connect_finished(int fd);

/// Self-pipe for waking a poll() loop. wake() is async-signal-safe-ish and
/// callable from any thread; drain() empties the pipe on the poll thread.
class WakePipe {
 public:
  WakePipe();

  int read_fd() const { return read_end_.get(); }
  void wake();
  void drain();

 private:
  ScopedFd read_end_;
  ScopedFd write_end_;
};

/// One-shot timerfd on CLOCK_MONOTONIC, the clock behind
/// std::chrono::steady_clock on Linux: after the time given to arm_at()
/// the fd polls readable until drain(). Nanosecond resolution, so a poll
/// loop can wait for sub-millisecond deadlines without rounding them up to
/// a whole-millisecond poll timeout. Single-threaded, like its loop.
class DeadlineTimer {
 public:
  using Clock = std::chrono::steady_clock;

  DeadlineTimer();

  int fd() const { return fd_.get(); }
  /// Sets the expiry to `when` (absolute), replacing the previous one;
  /// Clock::time_point::max() disarms. Costs no syscall when `when` is what
  /// is already set.
  void arm_at(Clock::time_point when);
  /// Consumes an expiry; the timer stays disarmed until the next arm_at().
  void drain();

 private:
  ScopedFd fd_;
  Clock::time_point armed_ = Clock::time_point::max();
};

}  // namespace tailguard::net
