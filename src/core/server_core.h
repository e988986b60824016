// One task server of Fig. 2: a policy queue, the task in service, the
// receipt stamp and the miss rule, whose count drives §III.C admission.
// Clock-agnostic (each call takes the driver's `now`) and driven by all three
// backends: the simulator (one core per server), runtime::Worker and the
// executors of net::TaskServer. Payloads stay with the driver: the runtime
// and the daemon park theirs in a TicketSlab and queue the ticket as
// QueuedTask::task.
#pragma once

#include <cstddef>
#include <memory>

#include "common/check.h"
#include "core/policy.h"

namespace tailguard {

class ServerCore {
 public:
  /// A task dequeued after t_D + kMissSlack missed. The slack absorbs the
  /// simulator's float round-off at a start exactly on t_D.
  static constexpr TimeMs kMissSlack = 1e-12;

  ServerCore(Policy policy, std::size_t num_classes)
      : queue_(make_task_queue(policy, num_classes)),
        edf_(dynamic_cast<EdfTaskQueue*>(queue_.get())),
        fifo_(dynamic_cast<FifoTaskQueue*>(queue_.get())) {}

  /// Receives `task` at `now`: stamps `enqueue_time`, then queues it. Both
  /// EDF and FIFO queues are final classes, so the typed pointers
  /// devirtualize their push and pop; PRIQ goes through the vtable.
  void push(QueuedTask task, TimeMs now) {
    task.enqueue_time = now;
    if (edf_ != nullptr) edf_->push(task);
    else if (fifo_ != nullptr) fifo_->push(task);
    else queue_->push(task);
    ++queued_;
  }

  /// Receives `task` at `now` straight into service, never touching the
  /// queue. Precondition: backlog() == 0.
  void start(QueuedTask task, TimeMs now) {
    TG_DCHECK(backlog() == 0);
    task.enqueue_time = now;
    serve(task, now);
  }

  /// Serves the next queued task, in policy order, from `now`.
  /// Precondition: !busy() && queued() != 0.
  const QueuedTask& start_next(TimeMs now) {
    TG_DCHECK(!busy_ && queued_ != 0);
    --queued_;
    serve(edf_ != nullptr    ? edf_->pop()
          : fifo_ != nullptr ? fifo_->pop()
                             : queue_->pop(),
          now);
    return current_;
  }

  /// Ends the service in progress.
  void finish() {
    TG_DCHECK(busy_);
    busy_ = false;
  }

  bool busy() const { return busy_; }
  std::size_t queued() const { return queued_; }
  /// Queued tasks plus the one in service.
  std::size_t backlog() const { return queued_ + (busy_ ? 1 : 0); }
  /// The task last put into service, its dequeue time and its miss flag.
  const QueuedTask& current() const { return current_; }
  TimeMs dequeue_time() const { return dequeue_time_; }
  bool missed() const { return missed_; }

 private:
  void serve(const QueuedTask& task, TimeMs now) {
    current_ = task;
    dequeue_time_ = now;
    missed_ = now > task.tail_deadline + kMissSlack;  // the one miss rule
    busy_ = true;
  }

  std::unique_ptr<TaskQueue> queue_;
  EdfTaskQueue* edf_;
  FifoTaskQueue* fifo_;
  std::size_t queued_ = 0;  ///< queue_->size(), without a virtual call
  bool busy_ = false;
  bool missed_ = false;
  TimeMs dequeue_time_ = 0.0;
  QueuedTask current_;
};

}  // namespace tailguard
