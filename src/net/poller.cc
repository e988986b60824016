#include "net/poller.h"

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>

#include "net/socket.h"

namespace tailguard::net {

void Poller::watch(int fd, bool want_read, bool want_write) {
  const Interest wanted{want_read, want_write};
  const auto it = interest_.find(fd);
  const bool existed = it != interest_.end();
  if (existed && it->second.read == wanted.read &&
      it->second.write == wanted.write)
    return;  // steady state: no syscall
  interest_[fd] = wanted;
  apply(fd, wanted, existed);
}

void Poller::forget(int fd) {
  if (interest_.erase(fd) > 0) retract(fd);
}

namespace {

class EpollPoller final : public Poller {
 public:
  explicit EpollPoller(int epfd) : epfd_(epfd) {}

  int wait(std::vector<Event>& out, int timeout_ms) override {
    epoll_event evs[kMaxBatch];
    const int n = ::epoll_wait(epfd_.get(), evs, kMaxBatch, timeout_ms);
    if (n <= 0) return 0;  // timeout or EINTR
    for (int i = 0; i < n; ++i) {
      Event ev;
      ev.fd = evs[i].data.fd;
      ev.readable = (evs[i].events & EPOLLIN) != 0;
      ev.writable = (evs[i].events & EPOLLOUT) != 0;
      ev.closed = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(ev);
    }
    return n;
  }

  Backend backend() const override { return Backend::kEpoll; }

 protected:
  void apply(int fd, Interest interest, bool existed) override {
    epoll_event ev{};
    ev.events = (interest.read ? EPOLLIN : 0u) |
                (interest.write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_.get(), existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev);
  }

  void retract(int fd) override {
    ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  }

 private:
  static constexpr int kMaxBatch = 64;
  ScopedFd epfd_;
};

class PollPoller final : public Poller {
 public:
  int wait(std::vector<Event>& out, int timeout_ms) override {
    fds_.clear();
    for (const auto& [fd, interest] : interest_) {
      short events = 0;
      if (interest.read) events |= POLLIN;
      if (interest.write) events |= POLLOUT;
      fds_.push_back({fd, events, 0});
    }
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return 0;  // timeout or EINTR
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      Event ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & POLLIN) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.closed = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(ev);
    }
    return n;
  }

  Backend backend() const override { return Backend::kPoll; }

 protected:
  void apply(int, Interest, bool) override {}
  void retract(int) override {}

 private:
  std::vector<pollfd> fds_;  // rebuilt per wait; reused capacity
};

}  // namespace

std::unique_ptr<Poller> Poller::create(Backend backend) {
  if (backend == Backend::kEpoll) {
    const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd >= 0) return std::unique_ptr<Poller>(new EpollPoller(epfd));
    // No epoll here (exotic sandbox): the poll backend is always available.
  }
  return std::unique_ptr<Poller>(new PollPoller());
}

std::unique_ptr<Poller> Poller::create() {
  // tg-lint: allow(env-read) until callers pass a Backend
  const char* env = std::getenv("TAILGUARD_NET_BACKEND");
  if (env != nullptr && std::string(env) == "poll")
    return create(Backend::kPoll);
  return create(Backend::kEpoll);
}

}  // namespace tailguard::net
