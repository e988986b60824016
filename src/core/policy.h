// Task queue disciplines (paper §III.A).
//
// All four evaluated policies — FIFO, PRIQ, T-EDFQ and TF-EDFQ (TailGuard) —
// are expressed as implementations of one TaskQueue interface, which
// ServerCore (core/server_core.h) drives on every backend. The two EDF
// variants share EdfTaskQueue and differ only in how the caller computes
// `deadline` (see DeadlineEstimator::deadline vs ::slo_deadline).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/types.h"

namespace tailguard {

/// A task waiting in a server's queue.
struct QueuedTask {
  /// The task's id; the runtime and the task daemon store a TicketSlab
  /// ticket here instead, which finds the task's payload.
  TaskId task = 0;
  QueryId query = 0;
  ClassId cls = 0;
  /// Receipt stamp: when the task reached its server (ServerCore::push).
  TimeMs enqueue_time = 0.0;
  /// Policy ordering key: t_D for TF-EDFQ, t_0 + SLO for T-EDFQ, t_0 for
  /// FIFO and PRIQ, which ignore it. Not the miss rule's deadline.
  TimeMs deadline = 0.0;
  /// Queuing deadline t_D under every policy: ServerCore flags the task
  /// missed when it is dequeued later than this.
  TimeMs tail_deadline = 0.0;
  /// Assigned by the queue on push; breaks EDF ties in FIFO order.
  std::uint64_t seq = 0;
  /// Optional service-demand annotation. The simulator pre-samples task
  /// service times at query arrival so that all policies process identical
  /// task sequences (common random numbers); queues never inspect it.
  TimeMs service_time = 0.0;
};

class TaskQueue {
 public:
  virtual ~TaskQueue() = default;

  /// Enqueues a copy of `task`; the queue assigns `seq` on its copy. Taking
  /// a reference (not a by-value parameter) keeps the hot submit path to one
  /// 64-byte copy — straight into the backing container.
  virtual void push(const QueuedTask& task) = 0;

  /// Removes and returns the next task. Precondition: !empty().
  virtual QueuedTask pop() = 0;

  /// The task pop() would return. Precondition: !empty().
  virtual const QueuedTask& peek() const = 0;

  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  virtual Policy policy() const = 0;
};

/// First-in-first-out.
class FifoTaskQueue final : public TaskQueue {
 public:
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override { return queue_.size(); }
  Policy policy() const override { return Policy::kFifo; }

 private:
  std::deque<QueuedTask> queue_;
  std::uint64_t next_seq_ = 0;
};

/// Strict priority across classes (class 0 highest), FIFO within a class.
class ClassPriorityTaskQueue final : public TaskQueue {
 public:
  explicit ClassPriorityTaskQueue(std::size_t num_classes);
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override { return size_; }
  Policy policy() const override { return Policy::kPriq; }

 private:
  std::size_t first_nonempty() const;

  std::vector<std::deque<QueuedTask>> per_class_;
  /// Occupancy bitmask, one bit per class (64 classes per word): bit set
  /// iff the class deque is non-empty, so first_nonempty() is a
  /// countr_zero instead of a linear scan over the class deques.
  std::vector<std::uint64_t> occupancy_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Earliest-deadline-first with FIFO tie-breaking; used by both T-EDFQ and
/// TF-EDFQ depending on how the caller derives `deadline`.
///
/// Backed by a raw vector driven with std::push_heap/std::pop_heap rather
/// than std::priority_queue: priority_queue::top() returns a const
/// reference, which forces pop() to *copy* the head before popping, while
/// pop_heap lets the head be moved out of the backing vector.
class EdfTaskQueue final : public TaskQueue {
 public:
  /// `reported_policy` must be kTEdf or kTfEdf.
  explicit EdfTaskQueue(Policy reported_policy);
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override { return heap_.size(); }
  Policy policy() const override { return reported_policy_; }

 private:
  struct Later {
    bool operator()(const QueuedTask& a, const QueuedTask& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  std::vector<QueuedTask> heap_;  // min-heap on (deadline, seq) via Later
  Policy reported_policy_;
  std::uint64_t next_seq_ = 0;
};

/// Builds the queue discipline for `policy`. `num_classes` is only consulted
/// by PRIQ.
std::unique_ptr<TaskQueue> make_task_queue(Policy policy,
                                           std::size_t num_classes = 1);

}  // namespace tailguard
