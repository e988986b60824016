#include "net/task_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace tailguard::net {

TaskServer::TaskServer(TaskServerOptions options)
    : options_(std::move(options)), epoch_(std::chrono::steady_clock::now()) {
  TG_CHECK_MSG(options_.num_executors >= 1, "need at least one executor");
  TG_CHECK_MSG(options_.num_classes >= 1, "need at least one class");
  std::string error;
  listen_fd_ = listen_tcp(options_.port, &error);
  TG_CHECK_MSG(listen_fd_.valid(), "task server cannot listen: " << error);
  port_ = local_port(listen_fd_.get());
  {
    MutexLock lock(mu_);
    next_gossip_ms_ = options_.gossip_interval_ms;
    executors_.reserve(options_.num_executors);
    for (std::size_t i = 0; i < options_.num_executors; ++i)
      executors_.emplace_back(options_.policy, options_.num_classes);
  }
  net_thread_ = std::thread([this] { net_loop(); });
}

TaskServer::~TaskServer() {
  stop();
  // The loop has already returned or is about to: it exits in the round
  // that closes the connections, dropping whatever was still queued.
  net_thread_.join();
}

void TaskServer::stop() {
  MutexLock lock(mu_);
  stopping_ = true;
  wake_.wake();
  // Connections are closed on the loop, which owns the poller they are
  // registered with; dispatchers see the disconnect before stop() returns
  // and fail what was in flight here.
  while (!closed_) closed_cv_.wait(mu_);
}

TimeMs TaskServer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t TaskServer::tasks_executed() const {
  MutexLock lock(mu_);
  return tasks_executed_;
}

std::uint64_t TaskServer::tasks_missed_deadline() const {
  MutexLock lock(mu_);
  return tasks_missed_;
}

std::size_t TaskServer::queue_depth() const {
  MutexLock lock(mu_);
  return queued_tasks();
}

std::size_t TaskServer::queued_tasks() const {
  std::size_t depth = 0;
  for (const ServerCore& e : executors_) depth += e.queued();
  return depth;
}

std::uint64_t TaskServer::gossip_deltas_sent() const {
  MutexLock lock(mu_);
  return gossip_deltas_sent_;
}

void TaskServer::accept_new_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try again next poll
    set_nonblocking(fd);
    set_tcp_nodelay(fd);
    Connection conn;
    conn.fd.reset(fd);
    fd_conn_[fd] = next_conn_id_;
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

bool TaskServer::read_connection(std::uint64_t conn_id, Connection& conn) {
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      // A short read drained the socket; the level-triggered poller reports
      // anything that arrives later.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      return false;  // peer closed
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
  }
  while (auto frame = conn.in.next()) handle_frame(conn_id, conn, *frame);
  return conn.in.error().empty();
}

void TaskServer::handle_frame(std::uint64_t conn_id, Connection& conn,
                              const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      HelloMsg hello;
      if (!decode(frame, &hello) || hello.protocol_version != kWireVersion) {
        conn.out.clear();   // hard error; swept (and the fd deregistered
        conn.dead = true;   // from the poller) at the end of this round
        return;
      }
      HelloAckMsg ack;
      ack.policy = static_cast<std::uint8_t>(options_.policy);
      ack.num_executors = static_cast<std::uint32_t>(options_.num_executors);
      encode_into(ack, conn.out.chunk());
      // Backfill: post-queuing samples observed while disconnected.
      if (!pending_samples_.empty()) {
        ModelSyncMsg sync;
        sync.samples_ms = std::move(pending_samples_);
        pending_samples_.clear();
        encode_into(sync, conn.out.chunk());
      }
      // Gossip capability announcement: a dispatcher that never sees this
      // (gossip disabled, or an old daemon without the message type at all)
      // falls back to the ModelSync path above.
      if (options_.gossip_interval_ms > 0) {
        GossipHelloMsg gossip;
        encode_into(gossip, conn.out.chunk());
      }
      conn.hello_done = true;
      break;
    }
    case MsgType::kSubmitTask: {
      SubmitTaskMsg msg;
      if (!decode(frame, &msg)) return;
      const TimeMs now = now_ms();
      QueuedTask task;
      task.task = origins_.put({conn_id, msg.task});
      task.query = msg.query;
      task.cls = msg.cls >= options_.num_classes
                     ? static_cast<ClassId>(options_.num_classes - 1)
                     : msg.cls;
      task.deadline = now + msg.relative_deadline_ms;
      task.tail_deadline = now + msg.relative_tail_deadline_ms;
      task.service_time = msg.simulated_service_ms;
      // Route to the least-backlogged executor, counting a task in service.
      ServerCore* target = &executors_.front();
      for (ServerCore& e : executors_)
        if (e.backlog() < target->backlog()) target = &e;
      target->push(task, now);
      break;
    }
    case MsgType::kStatsRequest: {
      StatsResponseMsg stats;
      stats.queue_depth = static_cast<std::uint32_t>(queued_tasks());
      stats.tasks_executed = tasks_executed_;
      stats.tasks_missed_deadline = tasks_missed_;
      encode_into(stats, conn.out.chunk());
      break;
    }
    default:
      // Unknown/unexpected types are skippable by design (versioned framing).
      break;
  }
}

void TaskServer::run_executors() {
  auto next_end = DeadlineTimer::Clock::time_point::max();
  const TimeMs now = now_ms();
  for (ServerCore& e : executors_) {
    // Compared as the same difference the TaskDone reports, so a reported
    // service_ms is never below the simulated time.
    if (e.busy() && now - e.dequeue_time() >= e.current().service_time)
      complete_task(e, now);
    while (!e.busy() && e.queued() != 0) {
      // A zero-time task completes on the spot.
      if (e.start_next(now_ms()).service_time <= 0.0)
        complete_task(e, now_ms());
    }
    if (e.busy()) {
      // Rounded up to the timer's nanosecond, so the loop it wakes sees the
      // service as over.
      const auto end = epoch_ + std::chrono::ceil<std::chrono::nanoseconds>(
                                    std::chrono::duration<double, std::milli>(
                                        e.dequeue_time() +
                                        e.current().service_time));
      next_end = std::min(next_end, end);
    }
  }
  service_timer_.arm_at(next_end);
}

void TaskServer::complete_task(ServerCore& executor, TimeMs complete_ms) {
  executor.finish();
  const QueuedTask& task = executor.current();
  const TimeMs dequeue_ms = executor.dequeue_time();
  const bool missed = executor.missed();
  const TaskOrigin origin =
      origins_.take(static_cast<std::uint32_t>(task.task));
  TaskDoneMsg msg;
  msg.task = origin.task;
  msg.query = task.query;
  msg.queue_ms = dequeue_ms - task.enqueue_time;
  msg.service_ms = complete_ms - dequeue_ms;
  msg.missed_deadline = missed;

  ++tasks_executed_;
  if (missed) ++tasks_missed_;
  bool sent = false;
  const auto conn_it = conns_.find(origin.conn);
  if (conn_it != conns_.end() && conn_it->second.hello_done &&
      !conn_it->second.dead && conn_it->second.fd.valid()) {
    // Sent at once when nothing is queued ahead of it; otherwise the queue
    // is waiting for POLLOUT and the sweep sends this frame with the rest.
    Connection& conn = conn_it->second;
    const bool idle = conn.out.empty();
    encode_into(msg, conn.out.chunk());
    sent = true;
    if (idle) {
      // On an error this TaskDone never left: it falls through to the
      // ModelSync backfill below, and the sweep closes the connection.
      sent = conn.out.flush(conn.fd.get()) != SendQueue::FlushResult::kError;
      conn.dead = !sent;
    }
  }
  if (!sent && pending_samples_.size() < options_.max_buffered_samples) {
    // No dispatcher to tell: keep the observation for the next ModelSync.
    pending_samples_.push_back(msg.service_ms);
  }
  if (options_.gossip_interval_ms > 0) {
    // Every OTHER dispatcher learns of this completion via the next
    // GossipDelta. The owning connection just got the TaskDone above —
    // skipping it keeps each observation exactly-once per dispatcher.
    for (auto& [id, other] : conns_) {
      if (id == origin.conn || !other.hello_done || other.dead) continue;
      if (other.gossip_samples.size() < options_.max_buffered_samples)
        other.gossip_samples.push_back(msg.service_ms);
      else
        ++other.gossip_samples_dropped;
      ++other.gossip_dequeues_recorded;
      if (missed) ++other.gossip_dequeues_missed;
    }
  }
}

void TaskServer::close_connections() {
  for (auto& [id, conn] : conns_)
    if (conn.fd.valid()) poller_.forget(conn.fd.get());
  conns_.clear();
  fd_conn_.clear();
  poller_.forget(listen_fd_.get());
  listen_fd_.reset();
  closed_ = true;
  closed_cv_.notify_all();
}

void TaskServer::maybe_gossip(TimeMs now) {
  if (options_.gossip_interval_ms <= 0 || now < next_gossip_ms_) return;
  const std::uint32_t depth = static_cast<std::uint32_t>(queued_tasks());
  for (auto& [id, conn] : conns_) {
    if (!conn.hello_done || conn.dead || !conn.fd.valid()) continue;
    GossipDeltaMsg msg;
    msg.delta.seq = next_gossip_seq_++;
    // The dispatcher knows which of its servers this connection reaches;
    // the daemon doesn't, so the entry's server id is a placeholder and
    // receivers rebind it per connection.
    ShardDelta::ServerEntry entry;
    entry.samples_ms = std::move(conn.gossip_samples);
    entry.samples_dropped = conn.gossip_samples_dropped;
    entry.load_estimate = depth;
    entry.has_load = true;
    msg.delta.servers.push_back(std::move(entry));
    msg.delta.dequeues_recorded = conn.gossip_dequeues_recorded;
    msg.delta.dequeues_missed = conn.gossip_dequeues_missed;
    conn.gossip_samples.clear();
    conn.gossip_samples_dropped = 0;
    conn.gossip_dequeues_recorded = 0;
    conn.gossip_dequeues_missed = 0;
    encode_into(msg, conn.out.chunk());
    ++gossip_deltas_sent_;
  }
  // Wall-clock re-arm (the daemon is not simulated): next boundary from now,
  // so a long idle stretch costs one round, not a backlog of empty ones.
  next_gossip_ms_ = now + options_.gossip_interval_ms;
}

void TaskServer::flush_and_sweep_connections() {
  // Runs once per loop round, after the readiness events and the executors:
  // flush whatever is queued (a Hello's ack, a gossip delta, TaskDones that
  // waited behind a full socket), then close dead connections (including
  // those a TaskDone's send found broken) and refresh poller interest for
  // the rest.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = it->second;
    if (!conn.dead && conn.fd.valid() && !conn.out.empty() &&
        conn.out.flush(conn.fd.get()) == SendQueue::FlushResult::kError)
      conn.dead = true;
    // A connection the poller refuses could never be serviced again: treat
    // it like EPOLLERR.
    if (!conn.dead && conn.fd.valid() &&
        !poller_.watch(conn.fd.get(), /*want_read=*/true,
                       /*want_write=*/!conn.out.empty()))
      conn.dead = true;
    if (conn.dead || !conn.fd.valid()) {
      if (conn.fd.valid()) {
        poller_.forget(conn.fd.get());
        fd_conn_.erase(conn.fd.get());
      }
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TaskServer::net_loop() {
  for (const int fd : {listen_fd_.get(), wake_.read_fd(), service_timer_.fd()})
    TG_CHECK_MSG(poller_.watch(fd, /*want_read=*/true, /*want_write=*/false),
                 "epoll_ctl: " << std::strerror(errno));
  std::vector<Poller::Event> events;
  for (;;) {
    int timeout_ms = 200;
    if (options_.gossip_interval_ms > 0) {
      MutexLock lock(mu_);
      // Wake in time for the next gossip boundary instead of sleeping
      // through it (while keeping the 200 ms liveness ceiling).
      const double until = next_gossip_ms_ - now_ms();
      timeout_ms = std::clamp(static_cast<int>(until) + 1, 1, 200);
    }
    events.clear();
    poller_.wait(events, timeout_ms);

    MutexLock lock(mu_);
    if (stopping_) {
      // Once the connections are closed no TaskDone, ModelSync sample or
      // gossip can leave the daemon, so what is still queued or in service
      // is dropped with the loop.
      close_connections();
      return;
    }
    bool accept_ready = false;
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_.read_fd()) {
        wake_.drain();
        continue;
      }
      if (ev.fd == service_timer_.fd()) {
        service_timer_.drain();
        continue;
      }
      if (ev.fd == listen_fd_.get()) {
        accept_ready = true;
        continue;
      }
      const auto id_it = fd_conn_.find(ev.fd);
      if (id_it == fd_conn_.end()) continue;  // closed earlier this round
      const auto it = conns_.find(id_it->second);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      if (ev.closed) conn.dead = true;
      if (!conn.dead && ev.readable &&
          !read_connection(id_it->second, conn))
        conn.dead = true;
    }
    // Every read is in before any executor pops: a pop orders everything
    // received up to it.
    run_executors();
    // Accept after the connection events and before the sweep: descriptors
    // are only ever closed inside the sweep (or by close_connections(),
    // which also closes the listen socket), so an accepted fd can never
    // alias a stale event in this batch, and the sweep registers the new
    // connections' read interest with the poller.
    if (accept_ready) accept_new_connections();
    maybe_gossip(now_ms());
    flush_and_sweep_connections();
  }
}

}  // namespace tailguard::net
