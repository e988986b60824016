#include "net/poller.h"

#include <sys/epoll.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace tailguard::net {

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  TG_CHECK_MSG(epfd_.valid(), "epoll_create1: " << std::strerror(errno));
}

void Poller::watch(int fd, bool want_read, bool want_write) {
  const auto it = interest_.find(fd);
  const bool existed = it != interest_.end();
  if (existed && it->second.read == want_read &&
      it->second.write == want_write)
    return;  // steady state: no syscall
  interest_[fd] = Interest{want_read, want_write};
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epfd_.get(), existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev);
}

void Poller::forget(int fd) {
  if (interest_.erase(fd) > 0)
    ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::wait(std::vector<Event>& out, int timeout_ms) {
  constexpr int kMaxBatch = 64;
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

}  // namespace tailguard::net
