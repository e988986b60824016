#include "runtime/worker.h"

#include <chrono>

#include "common/check.h"

namespace tailguard {

namespace {

/// Runs the closure when set, otherwise sleeps for the simulated service
/// duration.
void execute_task_payload(const RuntimeTask& task) {
  if (task.work) {
    task.work();
  } else if (task.simulated_service_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(task.simulated_service_ms));
  }
}

}  // namespace

Worker::Worker(ServerId id, Policy policy, std::size_t num_classes,
               ClockFn clock, CompletionFn on_complete)
    : id_(id),
      clock_(std::move(clock)),
      on_complete_(std::move(on_complete)),
      core_(policy, num_classes) {
  TG_CHECK_MSG(clock_ != nullptr, "worker needs a clock");
  TG_CHECK_MSG(on_complete_ != nullptr, "worker needs a completion callback");
  thread_ = std::thread([this] { run(); });
}

Worker::~Worker() {
  shutdown();
  if (thread_.joinable()) thread_.join();
}

void Worker::submit(RuntimeTask task, TimeMs enqueue_ms,
                    TimeMs order_deadline) {
  // Accept-then-check: the counter bump happens before the shutdown test so
  // the worker can never observe "all accepted work consumed" while this
  // submit is still deciding — a submit that passes the check is therefore
  // guaranteed to be drained before the worker exits. A submit that loses
  // the race rolls the counter back and throws, exactly the old behavior of
  // checking `shutdown_` under the queue mutex.
  submitted_.fetch_add(1, std::memory_order_seq_cst);
  if (shutdown_.load(std::memory_order_seq_cst)) {
    submitted_.fetch_sub(1, std::memory_order_seq_cst);
    TG_CHECK_MSG(false, "submit after shutdown");
  }
  depth_.fetch_add(1, std::memory_order_relaxed);
  ring_.push(Submission{std::move(task), enqueue_ms, order_deadline});

  // Ring the doorbell only if the worker is (about to be) asleep. The
  // seq_cst publish above + seq_cst read below pair with the consumer's
  // seq_cst sleeping_ store + emptiness re-check: at least one side sees
  // the other, so the worker either self-serves or gets notified. The empty
  // lock/unlock pins down the remaining window where the consumer has set
  // sleeping_ but not yet entered wait(): we cannot notify until it holds
  // the condvar, because it holds the mutex from before its re-check until
  // wait() releases it.
  if (sleeping_.load(std::memory_order_seq_cst)) {
    { MutexLock lock(doorbell_mu_); }
    doorbell_.notify_one();
  }
}

void Worker::shutdown() {
  shutdown_.store(true, std::memory_order_seq_cst);
  { MutexLock lock(doorbell_mu_); }
  doorbell_.notify_all();
}

void Worker::drain_ring() {
  Submission s;
  while (ring_.try_pop(s)) {
    ++consumed_;
    QueuedTask qt;
    qt.query = s.task.query;
    qt.cls = s.task.cls;
    qt.deadline = s.order_deadline;
    qt.tail_deadline = s.task.tail_deadline;
    qt.task = tasks_.put(std::move(s.task));
    core_.push(qt, s.enqueue_ms);
  }
}

void Worker::run() {
  for (;;) {
    drain_ring();
    if (core_.queued() == 0) {
      // Exit only when shutdown is flagged AND every accepted submit has
      // been consumed — a producer past its shutdown check but before its
      // ring publish holds the worker here via `submitted_`.
      if (shutdown_.load(std::memory_order_seq_cst) && !work_published())
        return;
      if (work_published()) {
        // Claimed but not yet published (or just landed): spin, it is
        // nanoseconds away.
        std::this_thread::yield();
        continue;
      }
      {
        MutexLock lock(doorbell_mu_);
        sleeping_.store(true, std::memory_order_seq_cst);
        // Explicit wait loop (not the predicate overload): TSA analyzes
        // lambdas as separate functions holding no capabilities, so the
        // predicate form cannot be annotated. Same semantics.
        while (!work_published() &&
               !shutdown_.load(std::memory_order_seq_cst)) {
          doorbell_.wait(doorbell_mu_);
        }
        sleeping_.store(false, std::memory_order_seq_cst);
      }
      continue;
    }

    const QueuedTask& qt = core_.start_next(clock_());
    depth_.fetch_sub(1, std::memory_order_relaxed);
    const RuntimeTask task =
        tasks_.take(static_cast<std::uint32_t>(qt.task));
    execute_task_payload(task);
    const TimeMs complete_ms = clock_();
    on_complete_(id_, task, core_.dequeue_time(), complete_ms,
                 core_.missed());
    core_.finish();
  }
}

}  // namespace tailguard
