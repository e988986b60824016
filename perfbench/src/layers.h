// Standalone drives of the library's public per-layer functions, fed with
// inputs recorded from a workload run: the Eq. 6 budget, placement, the EDF
// queue, admission, service-time sampling and the wire codec. Each drive is
// timed from outside, in batches, so the clock read is not part of the
// per-call figure.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cdf_model.h"
#include "core/placement/policy.h"
#include "core/types.h"
#include "dist/distribution.h"
#include "report.h"

namespace perfbench {

/// The (class, servers, budget) stream of the queries a run planned, kept
/// in preallocated storage so recording never allocates inside a loop that
/// counts allocations.
class QueryRecorder {
 public:
  QueryRecorder(std::size_t max_queries, std::size_t max_servers);

  /// Records one placed query; ignored once the storage is full.
  void placed(tailguard::ClassId cls,
              std::span<const tailguard::ServerId> servers);
  /// Budget of the query recorded last (set after planning).
  void planned(double budget_ms);
  /// Budget of recorded query `i` (backends that learn it later).
  void set_budget(std::size_t i, double budget_ms);

  std::size_t queries() const { return cls_.size(); }
  tailguard::ClassId cls(std::size_t i) const { return cls_[i]; }
  std::span<const tailguard::ServerId> servers(std::size_t i) const;
  double budget(std::size_t i) const { return budget_[i]; }

 private:
  std::size_t max_queries_;
  std::size_t max_servers_;
  std::vector<tailguard::ClassId> cls_;
  std::vector<std::uint32_t> begin_;
  std::vector<tailguard::ServerId> servers_;
  std::vector<double> budget_;
};

struct LayerInputs {
  tailguard::Policy policy = tailguard::Policy::kTfEdf;
  std::vector<tailguard::ClassSpec> classes;
  /// One model per server, grouped by shared_ptr identity as in the
  /// workload.
  std::vector<std::shared_ptr<tailguard::CdfModel>> models;
  tailguard::PlacementPolicyOptions placement;
  const QueryRecorder* queries = nullptr;
  /// Service-time law the workload samples.
  tailguard::DistributionPtr service;
  /// Mean tasks waiting per server (Little's law on the workload's own
  /// latencies); the EDF drive holds the queue at this depth.
  double queue_depth = 1.0;
  /// Cluster-wide task rate in tasks per ms and the share of dequeues that
  /// missed their deadline: the admission window's input stream.
  double tasks_per_ms = 1.0;
  double miss_share = 0.0;
  /// Per-metric override of the "should move" column; the default is
  /// "cpu_per_task_rel".
  std::map<std::string, std::string> moves;
};

/// Runs every drive for about `seconds_each` and records budget.ns,
/// place.ns, edf.push_ns, edf.pop_ns, admit.ns, dist.sample_ns,
/// wire.codec_ns_per_task and wire.bytes_per_task in `report`.
void drive_layers(const LayerInputs& in, double seconds_each, Report& report);

}  // namespace perfbench
