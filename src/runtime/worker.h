// A task-server worker thread for the in-process TailGuard runtime.
//
// Each worker models one task server of Fig. 2: a single execution thread
// driving one ServerCore (core/server_core.h), the same queue, receipt stamp
// and miss rule the simulator and the task daemon drive. Tasks carry either
// a real closure or a simulated service duration.
//
// Submission path (the microsecond hot path): producers publish into a
// bounded lock-free MPSC ring; the worker drains the ring into its private
// policy queue before every scheduling decision, so policy order is decided
// over everything published at that instant — the same eligibility rule the
// old mutex gave (anything enqueued before the pop was orderable). The only
// blocking primitive left is a condvar doorbell rung exclusively on the
// empty→nonempty edge; while the worker is busy, submit() is a handful of
// atomic ops and no syscalls.
#pragma once

#include <atomic>
#include <functional>
#include <thread>

#include "common/slab_map.h"
#include "common/thread_annotations.h"
#include "core/server_core.h"
#include "runtime/mpsc_ring.h"

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

  /// Enqueues a task. `order_deadline` is the policy ordering key (t_D for
  /// TF-EDFQ, t_0 + SLO for T-EDFQ; ignored by FIFO/PRIQ). Lock-free:
  /// throws via TG_CHECK if the worker is already shut down; a submit that
  /// wins the race against shutdown() is guaranteed to execute (the worker
  /// drains every accepted submission before exiting).
  void submit(RuntimeTask task, TimeMs enqueue_ms, TimeMs order_deadline)
      TG_EXCLUDES(doorbell_mu_);

  /// Stops accepting work and finishes what is queued.
  void shutdown() TG_EXCLUDES(doorbell_mu_);

  ServerId id() const { return id_; }
  /// Tasks accepted but not yet started (in the ring or the policy queue).
  std::size_t queue_depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  /// One submit() crossing the producer→consumer boundary.
  struct Submission {
    RuntimeTask task;
    TimeMs enqueue_ms = 0.0;
    TimeMs order_deadline = kNoTime;
  };

  /// Submission ring capacity (power of two). Overflow does not drop or
  /// block the worker — producers spin-yield in MpscRing::push until the
  /// worker frees slots, which it does at drain speed (no task execution in
  /// between).
  static constexpr std::size_t kRingCapacity = 1024;

  void run() TG_EXCLUDES(doorbell_mu_);
  void drain_ring();
  bool work_published() const {
    return consumed_ != submitted_.load(std::memory_order_seq_cst);
  }

  // Set once in the constructor, read-only afterwards.
  // tg-lint: allow(guarded-member)
  ServerId id_;
  // tg-lint: allow(guarded-member): immutable after construction.
  ClockFn clock_;
  // tg-lint: allow(guarded-member): immutable after construction.
  CompletionFn on_complete_;

  // Lock-free MPSC ring: synchronizes via its own acquire/release slots.
  // tg-lint: allow(guarded-member)
  MpscRing<Submission> ring_{kRingCapacity};
  /// Submissions accepted (post shutdown-check). Compared against the
  /// consumer's `consumed_` to (a) detect published-but-undrained work and
  /// (b) hold the worker alive until every accepted submit has run.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> depth_{0};

  /// Doorbell for the empty→nonempty edge. `sleeping_` is the Dekker flag:
  /// the consumer sets it before its final emptiness re-check; producers
  /// check it after publishing. Both sides use seq_cst so one of them is
  /// guaranteed to see the other — no missed wakeup, and no notify (hence
  /// no syscall) while the worker is awake.
  std::atomic<bool> sleeping_{false};
  /// Guards nothing: it exists purely so the condvar wait/notify handshake
  /// has a mutex to close the sleeping_-set→wait() window against. All
  /// shared state crosses via the ring and the seq_cst atomics above.
  Mutex doorbell_mu_;
  CondVar doorbell_;

  // --- consumer-thread state (only the worker thread touches these, so no
  // mutex protects them by design) ---
  // tg-lint: allow(guarded-member): consumer-thread private.
  std::uint64_t consumed_ = 0;
  // tg-lint: allow(guarded-member): consumer-thread private.
  ServerCore core_;
  /// Queued tasks' payloads; the core queues their tickets.
  // tg-lint: allow(guarded-member): consumer-thread private.
  TicketSlab<RuntimeTask> tasks_;

  std::thread thread_;
};

}  // namespace tailguard
