#include "core/policy.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace tailguard {

// -------------------------------------------------------------------- FIFO

void FifoTaskQueue::push(const QueuedTask& task) {
  queue_.push_back(task);
  queue_.back().seq = next_seq_++;
}

QueuedTask FifoTaskQueue::pop() {
  TG_CHECK_MSG(!queue_.empty(), "pop from empty FIFO queue");
  QueuedTask t = queue_.front();
  queue_.pop_front();
  return t;
}

const QueuedTask& FifoTaskQueue::peek() const {
  TG_CHECK_MSG(!queue_.empty(), "peek into empty FIFO queue");
  return queue_.front();
}

// -------------------------------------------------------------------- PRIQ

ClassPriorityTaskQueue::ClassPriorityTaskQueue(std::size_t num_classes)
    : per_class_(num_classes), occupancy_((num_classes + 63) / 64, 0) {
  TG_CHECK_MSG(num_classes >= 1, "PRIQ needs at least one class");
}

void ClassPriorityTaskQueue::push(const QueuedTask& task) {
  TG_CHECK_MSG(task.cls < per_class_.size(),
               "task class " << task.cls << " out of range");
  per_class_[task.cls].push_back(task);
  per_class_[task.cls].back().seq = next_seq_++;
  occupancy_[task.cls / 64] |= std::uint64_t{1} << (task.cls % 64);
  ++size_;
}

std::size_t ClassPriorityTaskQueue::first_nonempty() const {
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    if (occupancy_[w] != 0)
      return w * 64 + static_cast<std::size_t>(std::countr_zero(occupancy_[w]));
  }
  TG_CHECK_MSG(false, "pop/peek on empty PRIQ queue");
  return 0;
}

QueuedTask ClassPriorityTaskQueue::pop() {
  const std::size_t c = first_nonempty();
  QueuedTask t = per_class_[c].front();
  per_class_[c].pop_front();
  if (per_class_[c].empty())
    occupancy_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  --size_;
  return t;
}

const QueuedTask& ClassPriorityTaskQueue::peek() const {
  return per_class_[first_nonempty()].front();
}

// --------------------------------------------------------------------- EDF

EdfTaskQueue::EdfTaskQueue(Policy reported_policy)
    : reported_policy_(reported_policy) {
  TG_CHECK_MSG(
      reported_policy == Policy::kTEdf || reported_policy == Policy::kTfEdf,
      "EdfTaskQueue reports only the EDF policies");
}

void EdfTaskQueue::push(const QueuedTask& task) {
  heap_.push_back(task);
  heap_.back().seq = next_seq_++;
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

QueuedTask EdfTaskQueue::pop() {
  TG_CHECK_MSG(!heap_.empty(), "pop from empty EDF queue");
  // pop_heap rotates the head to the back, where it can be moved out —
  // no copy of the popped task, unlike priority_queue::top().
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  QueuedTask t = std::move(heap_.back());
  heap_.pop_back();
  return t;
}

const QueuedTask& EdfTaskQueue::peek() const {
  TG_CHECK_MSG(!heap_.empty(), "peek into empty EDF queue");
  return heap_.front();
}

// ----------------------------------------------------------------- factory

std::unique_ptr<TaskQueue> make_task_queue(Policy policy,
                                           std::size_t num_classes) {
  switch (policy) {
    case Policy::kFifo:
      return std::make_unique<FifoTaskQueue>();
    case Policy::kPriq:
      return std::make_unique<ClassPriorityTaskQueue>(num_classes);
    case Policy::kTEdf:
    case Policy::kTfEdf:
      return std::make_unique<EdfTaskQueue>(policy);
  }
  TG_CHECK_MSG(false, "unknown policy");
  return nullptr;
}

}  // namespace tailguard
