// TailGuardService — the in-process, multi-threaded TailGuard runtime.
//
// This is the "implemented and tested" counterpart of the paper's testbed
// software: a central query handler (Fig. 2) that fans queries out to worker
// threads, computes task queuing deadlines from per-worker CDF models,
// updates those models online from observed post-queuing times (§III.B.2),
// and optionally applies query admission control (§III.C).
//
// Typical use (see examples/quickstart.cpp):
//
//   ServiceOptions opt;
//   opt.num_workers = 8;
//   opt.policy = Policy::kTfEdf;
//   opt.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
//   TailGuardService svc(opt);
//   svc.seed_profile(offline_samples);                  // offline estimation
//   auto fut = svc.submit(/*cls=*/0, tasks);            // fan out
//   QueryResult r = fut.get();                          // merged result
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/admission.h"
#include "runtime/worker.h"
#include "shard/sharded_control_plane.h"

namespace tailguard {

struct ServiceOptions {
  std::size_t num_workers = 4;
  Policy policy = Policy::kTfEdf;
  /// Service classes ordered by priority (class 0 tightest, as PRIQ expects).
  std::vector<ClassSpec> classes;
  /// Streaming-model knobs for the per-worker CDFs.
  StreamingCdfModel::Options model_options = {
      .histogram = {.min_value = 1e-3,
                    .max_value = 1e6,
                    .buckets_per_decade = 100,
                    .decay_every = 0,
                    .decay_factor = 0.5},
      .refresh_every = 500};
  /// Admission control; disabled when unset.
  std::optional<AdmissionOptions> admission;
  std::uint64_t seed = 42;
  /// Query-handler sharding (src/shard): submissions are routed across this
  /// many control-plane replicas, each behind its own mutex, with periodic
  /// delta-sync of models/admission/load state. 1 (the default) preserves
  /// the single-handler behaviour exactly.
  std::uint32_t num_handler_shards = 1;
  /// Delta-sync period (service-clock ms); <= 0 disables sync.
  TimeMs shard_sync_interval_ms = 0.0;
  /// Round-robin keeps concurrent submitters evenly spread by default.
  RouterKind shard_router = RouterKind::kRoundRobin;
  /// Placement policy for auto-placed tasks (core/placement/policy.h).
  /// Unset means the default options: least_loaded, the pre-policy
  /// behaviour, bit-for-bit.
  std::optional<PlacementPolicyOptions> placement;
  /// Observer called once per submitted query with the workers its tasks
  /// landed on (explicit targets included), in task order, before the
  /// admission decision. Runs under the shard lock — keep it cheap. Purely
  /// observational, for the cross-backend placement parity tests.
  std::function<void(std::span<const ServerId>)> placement_observer;
};

/// One task of a submitted query.
struct ServiceTaskSpec {
  /// Target worker; unset means the handler picks the least-loaded workers,
  /// distinct per query.
  std::optional<ServerId> worker;
  std::function<void()> work;
  TimeMs simulated_service_ms = 0.0;
};

struct QueryResult {
  QueryId id = 0;
  ClassId cls = 0;
  std::uint32_t fanout = 0;
  bool admitted = true;
  TimeMs latency_ms = 0.0;       ///< submit -> last merge
  TimeMs deadline_budget_ms = 0.0;  ///< T_b assigned at submit
  std::uint32_t tasks_missed_deadline = 0;
  /// Tasks that produced no result (remote server died or timed out). Always
  /// 0 for the in-process runtime; the remote dispatcher counts a query as
  /// degraded, not hung, when a task server fails mid-query.
  std::uint32_t tasks_failed = 0;
};

class TailGuardService {
 public:
  explicit TailGuardService(ServiceOptions options);
  /// Blocks until all in-flight queries finish, then stops the workers.
  ~TailGuardService();

  TailGuardService(const TailGuardService&) = delete;
  TailGuardService& operator=(const TailGuardService&) = delete;

  /// Offline estimation: seeds every worker's CDF model with a profiled
  /// post-queuing-time sample (ms).
  void seed_profile(std::span<const double> samples_ms);

  /// Submits a query of class `cls` with one entry per task. The future
  /// resolves when all task results are merged (or immediately with
  /// admitted=false when admission control rejects the query).
  ///
  /// `budget_override` replaces the Eq. 6 pre-dequeuing budget with an
  /// explicit one (the task deadline becomes now + budget). Request-level
  /// decomposition (Eq. 7) uses this to impose per-query budgets computed
  /// by split_request_budget(); see runtime/request_runner.h.
  std::future<QueryResult> submit(ClassId cls,
                                  std::vector<ServiceTaskSpec> tasks,
                                  std::optional<TimeMs> budget_override = {});

  /// Monotonic service clock (ms since construction).
  TimeMs now_ms() const;

  std::uint64_t completed_queries() const;
  std::uint64_t rejected_queries() const;
  double deadline_miss_ratio() const;
  std::size_t num_workers() const { return workers_.size(); }

  /// Placement observability: which policy ran and its per-decision
  /// counters, summed across handler shards.
  PlacementPolicyKind placement_kind() const;
  PlacementStats placement_stats() const;

  /// Snapshot of a worker's CDF model (e.g. to inspect learned quantiles):
  /// a deep copy taken under the shard locks, safe to read while queries are
  /// still in flight. (Returning a reference here used to let the model
  /// escape its lock while worker threads kept updating it — the annotation
  /// pass caught that.)
  std::shared_ptr<const CdfModel> worker_model(ServerId worker) const;

 private:
  struct PendingQuery {
    std::promise<QueryResult> promise;
    QueryResult result;
  };

  /// One query-handler shard: its mutex guards both the pending map below
  /// and every control-plane call made with this shard's index (sound
  /// because all of ShardedControlPlane's mutable state is per-shard).
  /// Cross-shard operations — delta-sync, aggregated counters — take every
  /// shard's mutex in index order (see lock_all / maybe_sync).
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<QueryId, PendingQuery> pending TG_GUARDED_BY(mu);
  };

  void on_task_complete(ServerId worker, const RuntimeTask& task,
                        TimeMs dequeue_ms, TimeMs complete_ms, bool missed);
  /// Caller must hold the submitting shard's mutex (which one is a runtime
  /// value, so the requirement is not expressible as a TSA capability —
  /// control_ state is per-shard as documented on Shard).
  std::vector<ServerId> pick_workers(std::uint32_t shard, std::size_t count,
                                     ClassId cls, TimeMs now);
  /// N-ary ordered acquisition through a dynamic container: inherently
  /// outside TSA's static capability model, like std::lock. unique_lock
  /// works on the annotated Mutex (a Lockable); the std header is simply
  /// not analyzed.
  std::vector<std::unique_lock<Mutex>> lock_all() const;
  /// Runs a delta-sync round when the interval boundary has passed; cheap
  /// atomic check on the fast path, all-shard lock only when a round is due.
  void maybe_sync(TimeMs now);

  // tg-lint: allow(guarded-member): immutable after construction.
  ServiceOptions options_;
  // tg-lint: allow(guarded-member): immutable after construction.
  std::chrono::steady_clock::time_point epoch_;

  /// The query-handler pipeline (shard/sharded_control_plane.h): admission,
  /// Eq. 6/7 budgets, t_D and ordering keys, query tracking, per-class miss
  /// accounting, online model updates — N replicas with delta-sync. Locking
  /// per shard, as documented on Shard.
  ShardedControlPlane control_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Routing key source: one monotone counter across all submitters.
  std::atomic<std::uint64_t> submit_seq_{0};
  /// Racy mirror of control_.next_sync_at(), so non-due completions skip the
  /// all-shard lock.
  std::atomic<double> next_sync_hint_;

  // Workers last: their threads must stop before the state above dies, and
  // member destruction order (reverse declaration) guarantees it.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace tailguard
