// A task-server worker thread for the in-process TailGuard runtime.
//
// Each worker models one task server of Fig. 2: a single execution thread
// driving one ServerCore (core/server_core.h), the same queue, receipt stamp
// and miss rule the simulator and the task daemon drive. Tasks carry either
// a real closure or a simulated service duration.
//
// The worker is a plain monitor: one mutex guards the core, the payload slab
// and the shutdown flag, and one condvar wakes the thread. submit() pushes
// straight into the policy queue under the lock, so policy order is decided
// over every task accepted before the pop. The payload and the completion
// callback run outside the lock.
#pragma once

#include <atomic>
#include <functional>
#include <thread>

#include "common/slab_map.h"
#include "common/thread_annotations.h"
#include "core/server_core.h"

namespace tailguard {

/// Work payload of one task.
struct RuntimeTask {
  QueryId query = 0;
  ClassId cls = 0;
  /// Queuing deadline t_D: the task missed when dequeued later than this.
  TimeMs tail_deadline = 0.0;
  /// Real work to run; when empty the worker busy-sleeps for
  /// `simulated_service_ms` instead.
  std::function<void()> work;
  TimeMs simulated_service_ms = 0.0;
};

class Worker {
 public:
  /// Called on the worker thread after each task finishes.
  /// `dequeue_ms`/`complete_ms` are on the caller-provided clock; `missed`
  /// is ServerCore's miss flag for the task.
  using CompletionFn = std::function<void(
      ServerId worker, const RuntimeTask& task, TimeMs dequeue_ms,
      TimeMs complete_ms, bool missed)>;
  /// Monotonic clock in milliseconds shared across the service.
  using ClockFn = std::function<TimeMs()>;

  Worker(ServerId id, Policy policy, std::size_t num_classes, ClockFn clock,
         CompletionFn on_complete);

  /// Drains the queue, then joins.
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Enqueues a task received at `enqueue_ms`. `order_deadline` is the
  /// policy ordering key (t_D for TF-EDFQ, t_0 + SLO for T-EDFQ; ignored by
  /// FIFO/PRIQ). Throws via TG_CHECK once the worker is shut down; a submit
  /// that returns is executed exactly once, before ~Worker returns.
  void submit(RuntimeTask task, TimeMs enqueue_ms, TimeMs order_deadline)
      TG_EXCLUDES(mu_);

  /// Stops accepting work; the worker finishes what is queued, then exits.
  void shutdown() TG_EXCLUDES(mu_);

  ServerId id() const { return id_; }
  /// Tasks accepted but not yet started. Lock-free, so placement can read
  /// it while holding its own locks.
  std::size_t queue_depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  void run() TG_EXCLUDES(mu_);

  // Set once in the constructor, read-only afterwards.
  // tg-lint: allow(guarded-member)
  ServerId id_;
  // tg-lint: allow(guarded-member): immutable after construction.
  ClockFn clock_;
  // tg-lint: allow(guarded-member): immutable after construction.
  CompletionFn on_complete_;

  Mutex mu_;
  /// Signalled on every submit and on shutdown.
  CondVar wake_;
  ServerCore core_ TG_GUARDED_BY(mu_);
  /// Queued tasks' payloads; the core queues their tickets.
  TicketSlab<RuntimeTask> tasks_ TG_GUARDED_BY(mu_);
  bool shutdown_ TG_GUARDED_BY(mu_) = false;
  std::atomic<std::size_t> depth_{0};

  std::thread thread_;
};

}  // namespace tailguard
