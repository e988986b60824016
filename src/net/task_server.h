// A networked TailGuard task server (one box of Fig. 2's task-server tier).
//
// One thread runs the whole daemon: an async TCP loop (epoll via
// net/poller.h, with a poll(2) fallback) speaking the net/wire.h protocol,
// and the executors behind it. An executor is one ServerCore
// (core/server_core.h): the policy queue, task in service and miss rule the
// simulator and the in-process runtime drive too.
//
//   dispatcher --- SubmitTask ---> [policy queue] -> executor (busy until t)
//   dispatcher <--- TaskDone ----- (queue_ms, post-queuing time, miss flag)
//
// Remote tasks carry no code, only a simulated service time, so serving one
// never blocks the thread: it is a deadline on a timerfd that the loop polls
// next to its sockets. Each round reads every ready socket first and only
// then lets the free executors pop, so a pop orders everything received
// before it; the loop that observes a service's end sends the TaskDone.
//
// Queuing deadlines arrive as durations relative to receipt and are stamped
// against the server's local monotonic clock, so dispatcher and server never
// need synchronised clocks. Completions for tasks whose connection has gone
// away are buffered as post-queuing-time samples and shipped in a ModelSync
// frame when a dispatcher (re)connects — the dispatcher's frozen CDF model
// catches up on rejoin (paper §III.B.2's online updating, resumed).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/slab_map.h"
#include "common/thread_annotations.h"
#include "core/server_core.h"
#include "net/poller.h"
#include "net/send_queue.h"
#include "net/socket.h"
#include "net/wire.h"

namespace tailguard::net {

struct TaskServerOptions {
  /// Port to listen on (loopback). 0 = kernel-assigned; read back via port().
  std::uint16_t port = 0;
  Policy policy = Policy::kTfEdf;
  std::size_t num_classes = 2;
  /// Executors: independently queued servers that run concurrently on the
  /// daemon's one thread. The paper's task servers have one policy queue and
  /// one executor; >1 shares the accept loop across several, and each
  /// SubmitTask joins the least-backlogged one.
  std::size_t num_executors = 1;
  std::string name = "tailguard-task-server";
  /// Cap on post-queuing samples buffered for ModelSync while disconnected.
  /// Also caps each connection's pending gossip sample buffer.
  std::size_t max_buffered_samples = 4096;
  /// Delta-gossip period (local-clock ms). When > 0 the server announces
  /// GossipHello after the handshake and streams each dispatcher a periodic
  /// GossipDelta of the completions *other* connections produced (samples,
  /// miss-window increments) plus a queue-depth load gauge — the wire form
  /// of shard/state_sync.h. 0 (the default) disables gossip entirely,
  /// behaving exactly like a pre-gossip daemon: dispatchers then rely on the
  /// ModelSync backfill alone.
  TimeMs gossip_interval_ms = 0.0;
};

class TaskServer {
 public:
  /// Binds and starts the daemon's one thread. Throws CheckFailure when the
  /// port cannot be bound.
  explicit TaskServer(TaskServerOptions options);
  /// Stops, then returns once every accepted task has run its full service
  /// and been counted.
  ~TaskServer();

  TaskServer(const TaskServer&) = delete;
  TaskServer& operator=(const TaskServer&) = delete;

  /// Closes the listen socket and all connections, without waiting for
  /// queued work: the executors go on serving it, and its completions become
  /// ModelSync samples. Idempotent.
  void stop() TG_EXCLUDES(mu_);

  /// Bound port (resolves an ephemeral request).
  std::uint16_t port() const { return port_; }

  /// Local monotonic clock (ms since construction).
  TimeMs now_ms() const;

  std::uint64_t tasks_executed() const TG_EXCLUDES(mu_);
  std::uint64_t tasks_missed_deadline() const TG_EXCLUDES(mu_);
  /// Tasks received but not yet in service.
  std::size_t queue_depth() const TG_EXCLUDES(mu_);
  /// GossipDelta frames queued so far (0 when gossip is disabled).
  std::uint64_t gossip_deltas_sent() const TG_EXCLUDES(mu_);

 private:
  struct Connection {
    ScopedFd fd;
    FrameBuffer in;
    /// Outbound frames, coalesced and flushed with vectored sends. Encode
    /// with `encode_into(msg, conn.out.chunk())`.
    SendQueue out;
    bool hello_done = false;
    /// Marked instead of closing inline so the net loop's sweep can
    /// deregister the fd from the poller before the number is recycled.
    bool dead = false;
    /// Gossip accumulation for THIS dispatcher: observations produced by
    /// tasks that *other* connections submitted. The owning connection's own
    /// completions travel in its TaskDone frames — excluding them here is
    /// what keeps every sample exactly-once per dispatcher.
    std::vector<double> gossip_samples;
    std::uint64_t gossip_samples_dropped = 0;
    std::uint64_t gossip_dequeues_recorded = 0;
    std::uint64_t gossip_dequeues_missed = 0;
  };

  /// Where a queued task came from, for routing its TaskDone. Parked in
  /// `origins_` under a ticket that the executor queues as the task's
  /// `task`, never under the wire id: every dispatcher numbers its tasks
  /// from 0, so two dispatchers sharing a daemon send the same ids.
  struct TaskOrigin {
    std::uint64_t conn = 0;
    TaskId task = 0;
  };

  void net_loop() TG_EXCLUDES(mu_);
  void accept_new_connections() TG_REQUIRES(mu_);
  /// Returns false when the connection must be closed.
  bool read_connection(std::uint64_t conn_id, Connection& conn)
      TG_REQUIRES(mu_);
  void handle_frame(std::uint64_t conn_id, Connection& conn,
                    const Frame& frame) TG_REQUIRES(mu_);
  /// Flushes pending output on every live connection, closes dead ones
  /// (deregistering from the poller first) and refreshes poller interest.
  void flush_and_sweep_connections() TG_REQUIRES(mu_);
  /// Emits one GossipDelta per live connection when the gossip boundary has
  /// passed, then re-arms. No-op while gossip is disabled.
  void maybe_gossip(TimeMs now) TG_REQUIRES(mu_);
  /// Ends every service whose simulated time has passed, lets each free
  /// executor pop in policy order (a zero-time task completes on the spot),
  /// and arms the service timer for the earliest end still pending.
  void run_executors() TG_REQUIRES(mu_);
  /// Ends `executor`'s service at `complete_ms`, counts the task and
  /// reports it: a TaskDone to its connection, else a ModelSync sample, plus
  /// gossip to the other connections.
  void complete_task(ServerCore& executor, TimeMs complete_ms)
      TG_REQUIRES(mu_);
  /// The stop() half that runs on the loop: closes the listen socket and
  /// every connection, then wakes stop().
  void close_connections() TG_REQUIRES(mu_);
  std::size_t queued_tasks() const TG_REQUIRES(mu_);
  /// True when no executor holds work, queued or in service.
  bool executors_idle() const TG_REQUIRES(mu_);

  // tg-lint: allow(guarded-member): immutable after construction.
  TaskServerOptions options_;
  // tg-lint: allow(guarded-member): immutable after construction.
  std::chrono::steady_clock::time_point epoch_;
  // tg-lint: allow(guarded-member): written once by the constructor.
  std::uint16_t port_ = 0;
  // tg-lint: allow(guarded-member): net-thread private after the bind.
  ScopedFd listen_fd_;
  // WakePipe is self-synchronizing: write end poked from any thread, read
  // end drained by the net thread. tg-lint: allow(guarded-member)
  WakePipe wake_;
  // tg-lint: allow(guarded-member): net-thread private after construction.
  std::unique_ptr<Poller> poller_;
  /// Fires at the earliest end of a service in progress.
  // tg-lint: allow(guarded-member): net-thread private after construction.
  DeadlineTimer service_timer_;

  mutable Mutex mu_;
  /// stop() raises `stopping_` and waits on `closed_cv_` until the loop has
  /// set `closed_`.
  CondVar closed_cv_;
  bool stopping_ TG_GUARDED_BY(mu_) = false;
  bool closed_ TG_GUARDED_BY(mu_) = false;
  /// Queued entries carry an `origins_` ticket as their `task` and the
  /// simulated service time as their `service_time`.
  std::vector<ServerCore> executors_ TG_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Connection> conns_ TG_GUARDED_BY(mu_);
  /// fd -> connection id.
  std::unordered_map<int, std::uint64_t> fd_conn_ TG_GUARDED_BY(mu_);
  std::uint64_t next_conn_id_ TG_GUARDED_BY(mu_) = 1;
  TicketSlab<TaskOrigin> origins_ TG_GUARDED_BY(mu_);
  std::vector<double> pending_samples_ TG_GUARDED_BY(mu_);
  std::uint64_t tasks_executed_ TG_GUARDED_BY(mu_) = 0;
  std::uint64_t tasks_missed_ TG_GUARDED_BY(mu_) = 0;
  /// Shared across connections: strictly increasing overall, hence strictly
  /// increasing along any one connection's subsequence — which is all the
  /// per-connection dedup on the dispatcher side needs.
  std::uint64_t next_gossip_seq_ TG_GUARDED_BY(mu_) = 1;
  TimeMs next_gossip_ms_ TG_GUARDED_BY(mu_) = 0.0;
  std::uint64_t gossip_deltas_sent_ TG_GUARDED_BY(mu_) = 0;

  std::thread net_thread_;
};

}  // namespace tailguard::net
