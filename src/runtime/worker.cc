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
  {
    MutexLock lock(mu_);
    TG_CHECK_MSG(!shutdown_, "submit after shutdown");
    QueuedTask qt;
    qt.query = task.query;
    qt.cls = task.cls;
    qt.deadline = order_deadline;
    qt.tail_deadline = task.tail_deadline;
    qt.task = tasks_.put(std::move(task));
    core_.push(qt, enqueue_ms);
    depth_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_.notify_one();
}

void Worker::shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
}

void Worker::run() {
  for (;;) {
    RuntimeTask task;
    TimeMs dequeue_ms = 0.0;
    bool missed = false;
    {
      MutexLock lock(mu_);
      if (core_.busy()) core_.finish();  // the task run last round is done
      // Explicit wait loop: TSA cannot see the lock inside a predicate
      // lambda.
      while (core_.queued() == 0 && !shutdown_) wake_.wait(mu_);
      if (core_.queued() == 0) return;  // shut down and drained
      const QueuedTask& qt = core_.start_next(clock_());
      depth_.fetch_sub(1, std::memory_order_relaxed);
      task = tasks_.take(static_cast<std::uint32_t>(qt.task));
      dequeue_ms = core_.dequeue_time();
      missed = core_.missed();
    }
    // Outside the lock, so submitters never wait behind a payload or behind
    // on_complete_, which takes a service shard mutex.
    execute_task_payload(task);
    on_complete_(id_, task, dequeue_ms, clock_(), missed);
  }
}

}  // namespace tailguard
