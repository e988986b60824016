// Latency metrics grouped by (service class, query fanout).
//
// The paper's evaluation always reports per-type tail latency: meeting an
// SLO "as a whole" does not imply each query type meets it (§IV.B), so every
// experiment checks the p-th percentile for each (class, fanout) group.
//
// A run produces only a handful of distinct (class, fanout) groups, so they
// live in a flat vector probed linearly — record_query runs once per query
// and a short scan over inline keys beats hashing into a node-based map.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"

namespace tailguard {

/// Accumulates raw latency samples for one group.
class LatencySample {
 public:
  void add(TimeMs latency_ms) { values_.push_back(latency_ms); }
  std::size_t count() const { return values_.size(); }
  TimeMs percentile(double pct) const;
  TimeMs mean() const;
  const std::vector<double>& values() const { return values_; }

  struct TailAndMean {
    TimeMs tail_ms = 0.0;
    TimeMs mean_ms = 0.0;
  };
  /// Both summary stats without copying the sample: the mean is computed
  /// first, over insertion order (floating-point summation is
  /// order-sensitive and the reported means are pinned to that order), then
  /// the percentile selects in place, permuting values_. Collection-time
  /// only — add() after this is fine, ordered reads of values() are not.
  TailAndMean tail_and_mean(double pct);

 private:
  std::vector<double> values_;
};

struct GroupKey {
  ClassId cls = 0;
  std::uint32_t fanout = 0;

  friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

class MetricsCollector {
 public:
  void record_query(ClassId cls, std::uint32_t fanout, TimeMs latency_ms);

  /// Task dequeue accounting for the deadline-miss ratio.
  void record_task_dequeue(bool missed_deadline) {
    ++tasks_dequeued_;
    if (missed_deadline) ++tasks_missed_;
  }

  double task_deadline_miss_ratio() const {
    return tasks_dequeued_ == 0 ? 0.0
                                : static_cast<double>(tasks_missed_) /
                                      static_cast<double>(tasks_dequeued_);
  }

  /// Groups in first-recorded order (callers sort as needed).
  const std::vector<std::pair<GroupKey, LatencySample>>& groups() const {
    return groups_;
  }
  /// Mutable view for collection-time in-place selection
  /// (LatencySample::tail_and_mean).
  std::vector<std::pair<GroupKey, LatencySample>>& mutable_groups() {
    return groups_;
  }

 private:
  std::vector<std::pair<GroupKey, LatencySample>> groups_;
  std::size_t last_index_ = 0;  ///< memo: group hit by the previous record
  std::uint64_t tasks_dequeued_ = 0;
  std::uint64_t tasks_missed_ = 0;
};

}  // namespace tailguard
