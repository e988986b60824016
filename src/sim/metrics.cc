#include "sim/metrics.h"

#include "common/stats.h"

namespace tailguard {

TimeMs LatencySample::percentile(double pct) const {
  return tailguard::percentile(values_, pct);
}

TimeMs LatencySample::mean() const { return mean_of(values_); }

LatencySample::TailAndMean LatencySample::tail_and_mean(double pct) {
  TailAndMean out;
  out.mean_ms = mean_of(values_);  // before selection: insertion-order sum
  out.tail_ms = percentile_inplace(values_, pct);
  return out;
}

void MetricsCollector::record_query(ClassId cls, std::uint32_t fanout,
                                    TimeMs latency_ms) {
  const GroupKey key{cls, fanout};
  // Workloads tend to record runs of the same group back to back, so check
  // the previously hit group before scanning.
  if (last_index_ < groups_.size() && groups_[last_index_].first == key) {
    groups_[last_index_].second.add(latency_ms);
    return;
  }
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].first == key) {
      groups_[i].second.add(latency_ms);
      last_index_ = i;
      return;
    }
  }
  last_index_ = groups_.size();
  groups_.emplace_back(key, LatencySample{});
  groups_.back().second.add(latency_ms);
}

}  // namespace tailguard
