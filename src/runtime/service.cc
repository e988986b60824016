#include "runtime/service.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "core/placement.h"

namespace tailguard {

namespace {
std::vector<std::shared_ptr<CdfModel>> make_worker_models(
    const ServiceOptions& options) {
  std::vector<std::shared_ptr<CdfModel>> models;
  models.reserve(options.num_workers);
  for (std::size_t i = 0; i < options.num_workers; ++i)
    models.push_back(
        std::make_shared<StreamingCdfModel>(options.model_options));
  return models;
}

ControlPlaneOptions make_control_plane_options(const ServiceOptions& options) {
  ControlPlaneOptions cp;
  cp.policy = options.policy;
  cp.classes = options.classes;
  cp.admission = options.admission;
  cp.placement = options.placement.value_or(PlacementPolicyOptions{});
  cp.seed = options.seed;
  return cp;
}

ShardingOptions make_sharding_options(const ServiceOptions& options) {
  ShardingOptions sh;
  sh.num_shards = options.num_handler_shards;
  sh.sync_interval_ms = options.shard_sync_interval_ms;
  sh.router = options.shard_router;
  return sh;
}
}  // namespace

TailGuardService::TailGuardService(ServiceOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      control_(make_sharding_options(options_),
               make_control_plane_options(options_),
               make_worker_models(options_)) {
  TG_CHECK_MSG(options_.num_workers >= 1, "need at least one worker");
  TG_CHECK_MSG(!options_.classes.empty(), "need at least one service class");

  shards_.reserve(control_.num_shards());
  for (std::uint32_t i = 0; i < control_.num_shards(); ++i)
    shards_.push_back(std::make_unique<Shard>());
  next_sync_hint_.store(control_.next_sync_at(), std::memory_order_relaxed);

  const auto clock = [this] { return now_ms(); };
  const auto on_complete = [this](ServerId worker, const RuntimeTask& task,
                                  TimeMs dequeue_ms, TimeMs complete_ms,
                                  bool missed) {
    on_task_complete(worker, task, dequeue_ms, complete_ms, missed);
  };
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i)
    workers_.push_back(std::make_unique<Worker>(
        static_cast<ServerId>(i), options_.policy, options_.classes.size(),
        clock, on_complete));
}

TailGuardService::~TailGuardService() {
  // Workers are declared last, so they are destroyed first: each drains its
  // queue and joins, firing the remaining completions while the rest of the
  // service state is still alive.
  for (auto& w : workers_) w->shutdown();
}

TimeMs TailGuardService::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<std::unique_lock<Mutex>> TailGuardService::lock_all() const {
  // Index order everywhere, so lock_all never deadlocks against per-shard
  // paths (which hold at most one shard mutex).
  std::vector<std::unique_lock<Mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& s : shards_) locks.emplace_back(s->mu);
  return locks;
}

void TailGuardService::maybe_sync(TimeMs now) {
  if (!control_.sync_enabled()) return;
  if (now < next_sync_hint_.load(std::memory_order_relaxed)) return;
  auto locks = lock_all();
  // Another thread may have run the round between the hint check and the
  // locks; maybe_sync re-checks under the barrier and no-ops in that case.
  control_.maybe_sync(now);
  next_sync_hint_.store(control_.next_sync_at(), std::memory_order_relaxed);
}

void TailGuardService::seed_profile(std::span<const double> samples_ms) {
  auto locks = lock_all();
  for (std::size_t w = 0; w < workers_.size(); ++w)
    control_.seed_profile(static_cast<ServerId>(w), samples_ms);
}

std::vector<ServerId> TailGuardService::pick_workers(std::uint32_t shard,
                                                     std::size_t count,
                                                     ClassId cls, TimeMs now) {
  TG_CHECK_MSG(count <= workers_.size(),
               "query fanout " << count << " exceeds worker count "
                               << workers_.size());
  std::vector<PlacementCandidate> load;
  load.reserve(workers_.size());
  for (const auto& w : workers_) load.emplace_back(w->queue_depth(), w->id());
  if (control_.sync_enabled()) {
    // Ship this shard's current load view in the next delta (gauges).
    for (const auto& [depth, id] : load)
      control_.update_local_load(shard, id,
                                 static_cast<std::uint32_t>(depth));
  }
  return control_.place(shard, std::move(load), count, cls, now);
}

std::future<QueryResult> TailGuardService::submit(
    ClassId cls, std::vector<ServiceTaskSpec> tasks,
    std::optional<TimeMs> budget_override) {
  TG_CHECK_MSG(!tasks.empty(), "query must contain at least one task");
  TG_CHECK_MSG(cls < options_.classes.size(), "unknown class " << cls);

  const TimeMs t0 = now_ms();
  const std::uint32_t shard = control_.route(
      submit_seq_.fetch_add(1, std::memory_order_relaxed), cls);
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();

  std::vector<ServerId> placement(tasks.size());
  std::vector<RuntimeTask> runtime_tasks(tasks.size());
  TimeMs order_deadline = 0.0;
  QueryId qid = 0;

  {
    // Bind the shard first: TSA matches capability expressions
    // syntactically, and `sh.mu` / `sh.pending` line up where the
    // vector-indexing expression would not.
    Shard& sh = *shards_[shard];
    MutexLock lock(sh.mu);

    // Placement: explicit workers are honoured; the rest go to the
    // least-loaded workers, distinct where possible.
    std::vector<std::size_t> unassigned;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].worker) {
        TG_CHECK_MSG(*tasks[i].worker < workers_.size(),
                     "unknown worker " << *tasks[i].worker);
        placement[i] = *tasks[i].worker;
      } else {
        unassigned.push_back(i);
      }
    }
    if (!unassigned.empty()) {
      const auto picked = pick_workers(shard, unassigned.size(), cls, t0);
      for (std::size_t j = 0; j < unassigned.size(); ++j)
        placement[unassigned[j]] = picked[j];
    }
    if (options_.placement_observer) options_.placement_observer(placement);

    // Admission decision (paper §III.C).
    if (!control_.should_admit(shard, t0)) {
      control_.count_rejected(shard);
      QueryResult r;
      r.cls = cls;
      r.fanout = static_cast<std::uint32_t>(tasks.size());
      r.admitted = false;
      promise.set_value(r);
      return future;
    }
    control_.count_admitted(shard);

    // Budget (Eq. 6, or the caller-imposed Eq. 7 override), t_D and the
    // ordering key all come from the control plane.
    const QueryPlan plan =
        control_.begin_query(shard, t0, cls, placement, budget_override);
    qid = plan.id;
    order_deadline = plan.order_deadline;
    PendingQuery pending;
    pending.promise = std::move(promise);
    pending.result.id = qid;
    pending.result.cls = cls;
    pending.result.fanout = static_cast<std::uint32_t>(tasks.size());
    pending.result.deadline_budget_ms = plan.budget_ms;
    sh.pending.emplace(qid, std::move(pending));

    for (std::size_t i = 0; i < tasks.size(); ++i) {
      runtime_tasks[i].query = qid;
      runtime_tasks[i].cls = cls;
      runtime_tasks[i].tail_deadline = plan.tail_deadline;
      runtime_tasks[i].work = std::move(tasks[i].work);
      runtime_tasks[i].simulated_service_ms = tasks[i].simulated_service_ms;
    }
  }

  for (std::size_t i = 0; i < tasks.size(); ++i)
    workers_[placement[i]]->submit(std::move(runtime_tasks[i]), t0,
                                   order_deadline);
  maybe_sync(t0);
  return future;
}

void TailGuardService::on_task_complete(ServerId worker,
                                        const RuntimeTask& task,
                                        TimeMs dequeue_ms, TimeMs complete_ms,
                                        bool missed) {
  const std::uint32_t shard = control_.shard_of(task.query);
  std::promise<QueryResult> to_fulfill;
  QueryResult result;
  bool finished = false;
  {
    Shard& sh = *shards_[shard];
    MutexLock lock(sh.mu);
    control_.record_task_dequeue(task.query, dequeue_ms, task.cls, missed);

    // Online updating (§III.B.2): post-queuing time = completion - dequeue.
    control_.observe_post_queuing(task.query, worker,
                                  complete_ms - dequeue_ms);

    auto& pending = sh.pending;
    auto it = pending.find(task.query);
    TG_CHECK_MSG(it != pending.end(), "no pending entry for query");
    if (missed) ++it->second.result.tasks_missed_deadline;

    QueryState final_state;
    if (control_.complete_task(task.query, &final_state)) {
      finished = true;
      it->second.result.latency_ms = complete_ms - final_state.t0;
      result = it->second.result;
      to_fulfill = std::move(it->second.promise);
      pending.erase(it);
    }
  }
  if (finished) to_fulfill.set_value(result);
  maybe_sync(complete_ms);
}

std::uint64_t TailGuardService::completed_queries() const {
  auto locks = lock_all();
  return control_.queries_completed();
}

std::uint64_t TailGuardService::rejected_queries() const {
  auto locks = lock_all();
  return control_.queries_rejected();
}

double TailGuardService::deadline_miss_ratio() const {
  auto locks = lock_all();
  return control_.task_miss_ratio();
}

PlacementPolicyKind TailGuardService::placement_kind() const {
  return control_.placement_kind();  // immutable after construction
}

PlacementStats TailGuardService::placement_stats() const {
  auto locks = lock_all();
  return control_.placement_stats();
}

std::shared_ptr<const CdfModel> TailGuardService::worker_model(
    ServerId worker) const {
  auto locks = lock_all();
  // Shard 0's view: with one handler shard (the default) this is the only
  // view; with several it is one replica's local+synced estimate. Deep-copy
  // under the locks: handing out a reference would race with the online
  // updates the worker threads keep applying.
  return control_.model_of(0, worker).clone();
}

}  // namespace tailguard
