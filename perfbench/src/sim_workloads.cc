// sim-paper and sim-fleet: the discrete-event simulator at the paper's
// scale and at fleet scale. See README.md for why each was chosen.
#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/cdf_model.h"
#include "layers.h"
#include "sim/cluster.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads.h"
#include "workloads/fanout.h"
#include "workloads/tailbench.h"

namespace perfbench {

using namespace tailguard;

namespace {

constexpr std::size_t kPaperQueries = 20000;   // BM_SimulatorThroughput's size
constexpr std::size_t kSearchQueries = 20000;  // per max-load evaluation
constexpr std::size_t kFleetQueries = 20000;
constexpr std::size_t kFleetServers = 10000;

SimConfig paper_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.num_servers = 100;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0}};
  cfg.fanout =
      std::make_shared<CategoricalFanout>(CategoricalFanout::paper_mix());
  cfg.service_time = make_service_time_model(TailbenchApp::kMasstree);
  cfg.num_queries = kPaperQueries;
  cfg.seed = seed;
  set_load(cfg, 0.5);
  return cfg;
}

SimConfig fleet_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.num_servers = kFleetServers;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0},
                 {.slo_ms = 1.5, .percentile = 99.0}};
  cfg.class_probabilities = {0.5, 0.5};
  // P(kf) proportional to 1/kf, as in ext_scale_and_classes.
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 10, 100, 1000},
      std::vector<double>{1000.0 / 1111.0, 100.0 / 1111.0, 10.0 / 1111.0,
                          1.0 / 1111.0});
  cfg.per_server_service = cluster_with_stragglers(
      make_service_time_model(TailbenchApp::kMasstree), kFleetServers, 0.25,
      1.5);
  cfg.estimation = EstimationMode::kOnlineFromSingleProfile;
  cfg.admission = AdmissionOptions{};
  cfg.placement_policy =
      PlacementPolicyOptions{.kind = PlacementPolicyKind::kPowerOfD};
  cfg.num_queries = kFleetQueries;
  cfg.seed = seed;
  set_load(cfg, 0.8);
  return cfg;
}

/// One run_simulation call, timed from outside. The on_query_placed hook
/// marks the end of set-up (the first query) and counts tasks; traced runs
/// add the placed -> planned -> next-placed spans and record the query
/// stream for the layer drives.
struct SimRep {
  std::size_t sub = 0;  ///< which of the run's sub-seeds it simulated
  bool ok = false;
  std::string failure;
  SimResult result;
  /// Thread CPU of the config build + run_simulation up to query 1.
  double setup_s = 0.0;
  double first_query_s = 0.0;  ///< run_simulation entry -> query 1
  double cpu_s = 0.0;    ///< thread CPU from query 1 to return
  double wall_s = 0.0;
  std::uint64_t queries = 0, tasks = 0;
  std::uint64_t plan_ns = 0, plans = 0;
  std::uint64_t gap_ns = 0, gap_tasks = 0;
  std::int64_t vcsw = 0, ivcsw = 0;  ///< context switches during the call
  double ref_s = 0.0;  ///< the latest reference_cpu_s() sample
};

SimRep run_rep(const SimConfig& base, bool traced, QueryRecorder* recorder) {
  SimRep rep;
  const double start_cpu = thread_cpu_s();
  SimConfig cfg = base;
  std::int64_t entry = 0, first = 0, placed_at = 0, planned_at = 0;
  double first_cpu = 0.0;
  std::uint32_t last_fanout = 0;
  if (traced) {
    cfg.on_query_placed = [&](ClassId cls, std::span<const ServerId> s) {
      const std::int64_t t = now_ns();
      if (rep.queries++ == 0) {
        first = t;
        first_cpu = thread_cpu_s();
      } else {
        rep.gap_ns += static_cast<std::uint64_t>(t - planned_at);
        rep.gap_tasks += last_fanout;
      }
      rep.tasks += s.size();
      last_fanout = static_cast<std::uint32_t>(s.size());
      if (recorder != nullptr) recorder->placed(cls, s);
      placed_at = now_ns();
    };
    cfg.on_query_planned = [&](const QueryPlan& plan) {
      planned_at = now_ns();
      rep.plan_ns += static_cast<std::uint64_t>(planned_at - placed_at);
      ++rep.plans;
      if (recorder != nullptr) recorder->planned(plan.budget_ms);
    };
  } else {
    cfg.on_query_placed = [&](ClassId, std::span<const ServerId> s) {
      if (rep.queries++ == 0) {
        first = now_ns();
        first_cpu = thread_cpu_s();
      }
      rep.tasks += s.size();
    };
  }
  const Usage u0 = usage();
  entry = now_ns();
  try {
    rep.result = run_simulation(cfg);
    rep.ok = true;
  } catch (const CheckFailure& e) {
    rep.failure = std::string("run_simulation threw CheckFailure: ") + e.what();
  }
  const std::int64_t end = now_ns();
  const Usage u1 = usage();
  rep.vcsw = u1.vcsw - u0.vcsw;
  rep.ivcsw = u1.ivcsw - u0.ivcsw;
  const double end_cpu = thread_cpu_s();
  if (rep.queries == 0) {
    first = end;
    first_cpu = end_cpu;
  }
  rep.setup_s = first_cpu - start_cpu;
  rep.first_query_s = 1e-9 * static_cast<double>(first - entry);
  rep.cpu_s = end_cpu - first_cpu;
  rep.wall_s = 1e-9 * static_cast<double>(end - first);
  return rep;
}

std::string fingerprint(const SimResult& r) {
  Fingerprint f;
  for (const auto& g : r.groups) {
    f.add(std::uint64_t{g.cls});
    f.add(std::uint64_t{g.fanout});
    f.add(g.queries);
    f.add(g.tail_latency_ms);
    f.add(g.mean_latency_ms);
  }
  for (const auto& c : r.class_results) {
    f.add(c.queries);
    f.add(c.tail_latency_ms);
  }
  f.add(r.queries_offered);
  f.add(r.queries_admitted);
  f.add(r.queries_rejected);
  f.add(r.tasks_admitted);
  f.add(r.tasks_rejected);
  f.add(r.task_deadline_miss_ratio);
  f.add(r.measured_utilization);
  f.add(r.end_time);
  f.add(r.placement_decisions);
  f.add(r.placement_candidates_considered);
  return f.hex();
}

/// Output checks on one completed simulation.
void check_result(const SimConfig& cfg, const SimRep& rep, Report& report) {
  const SimResult& r = rep.result;
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      cfg.warmup_fraction * static_cast<double>(cfg.num_queries));
  std::uint64_t grouped = 0;
  bool groups_valid = true;
  const auto support = cfg.fanout->support();
  for (const auto& g : r.groups) {
    grouped += g.queries;
    groups_valid = groups_valid && g.cls < cfg.classes.size() &&
                   std::find(support.begin(), support.end(), g.fanout) !=
                       support.end();
  }
  report.check(r.queries_offered == cfg.num_queries,
               "sim: every offered query was counted");
  report.check(rep.queries == r.queries_admitted &&
                   rep.tasks == r.tasks_admitted,
               "sim: task conservation (tasks placed == tasks admitted)");
  report.check(groups_valid,
               "sim: every group is a configured (class, fanout)");
  report.check(cfg.admission ? grouped <= r.queries_admitted &&
                                   grouped + warmup >= r.queries_admitted
                             : grouped + warmup == r.queries_admitted,
               "sim: group counts cover every recorded query");
  report.check(r.measured_utilization > 0.0 && r.measured_utilization <= 1.0,
               "sim: utilization within (0, 1]");
}

/// Worst (class, fanout) group: simulated p99 over its SLO, and its count.
std::pair<double, std::uint64_t> worst_group(const SimResult& r) {
  double worst = 0.0;
  std::uint64_t count = 0;
  for (const auto& g : r.groups) {
    if (g.queries == 0 || g.slo <= 0.0) continue;
    if (g.tail_latency_ms / g.slo > worst) {
      worst = g.tail_latency_ms / g.slo;
      count = g.queries;
    }
  }
  return {worst, count};
}

/// Mean tasks waiting per server by Little's law: per-server task rate times
/// the fanout-1 groups' mean wait (mean latency minus mean service).
double little_depth(const SimResult& r, std::size_t servers,
                    double mean_service_ms) {
  double latency_sum = 0.0, n = 0.0;
  for (const auto& g : r.groups)
    if (g.fanout == 1) {
      latency_sum += g.mean_latency_ms * static_cast<double>(g.queries);
      n += static_cast<double>(g.queries);
    }
  if (n == 0.0 || r.end_time <= 0.0) return 1.0;
  const double rate = static_cast<double>(r.tasks_admitted) /
                      (r.end_time * static_cast<double>(servers));
  return rate * std::max(0.0, latency_sum / n - mean_service_ms);
}

struct SimSpec {
  std::function<SimConfig(std::uint64_t sim_seed)> make;
  /// Distinct traffics per run: repetitions cycle through sub-seeds
  /// seed * subs + k, so one run's figure averages over up to `subs` draws
  /// of the traffic (as many as its time covers) instead of resting on one.
  std::size_t subs = 1;
  /// Models equivalent to the ones the simulator builds, for the drives.
  std::function<std::vector<std::shared_ptr<CdfModel>>(const SimConfig&)>
      models;
  double mean_service_ms = 0.0;
  std::map<std::string, std::string> moves;
};

struct FixedLoadOutcome {
  std::vector<SimRep> untraced, traced;
};

/// Repeats the fixed-load run for `seconds`; traced runs alternate traced
/// and untraced repetitions so the tracing overhead is measured in-run.
FixedLoadOutcome fixed_load(const SimSpec& spec, std::uint64_t seed,
                            double seconds, bool trace,
                            QueryRecorder* recorder, Report& report) {
  FixedLoadOutcome out;
  std::vector<SimConfig> configs;
  for (std::size_t k = 0; k < spec.subs; ++k)
    configs.push_back(spec.make(seed * spec.subs + k));
  std::vector<std::string> first_fp(spec.subs);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  // The host's speed is sampled every 250 ms rather than after every
  // repetition: the reference pass evicts the simulator's working set, and
  // the repetition right after a sample (one in dozens) pays for it.
  double ref_s = 0.0;
  std::int64_t next_ref = 0;
  for (std::size_t i = 0; now_ns() < deadline || out.untraced.size() < 3 ||
                          (trace && out.traced.size() < 3);
       ++i) {
    if (now_ns() >= next_ref) {
      ref_s = reference_cpu_s();
      next_ref = now_ns() + 250'000'000;
    }
    const bool traced = trace && i % 2 == 1;
    const std::size_t sub = (trace ? i / 2 : i) % spec.subs;
    SimRep rep = run_rep(configs[sub], traced,
                         traced && out.traced.empty() ? recorder : nullptr);
    rep.sub = sub;
    rep.ref_s = ref_s;
    report.attempt(rep.failure);
    if (rep.ok) {
      check_result(configs[sub], rep, report);
      const std::string fp = fingerprint(rep.result);
      if (first_fp[sub].empty()) {
        first_fp[sub] = fp;
        report.info("sim.fingerprint." + std::to_string(sub), 0, "",
                    "seed " + std::to_string(configs[sub].seed) + ": " + fp);
      }
      report.check(fp == first_fp[sub],
                   "sim: SimResult identical across repetitions of a seed");
    }
    (traced ? out.traced : out.untraced).push_back(std::move(rep));
  }
  return out;
}

/// Mean over the sub-seeds of the per-sub-seed median of field / tasks:
/// the median removes preempted repetitions, the mean weighs each traffic
/// draw equally.
template <typename Field>
double per_task(const std::vector<SimRep>& reps, std::size_t subs,
                Field field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < subs; ++k) {
    std::vector<double> v;
    for (const auto& r : reps)
      if (r.sub == k && r.tasks > 0)
        v.push_back(field(r) / static_cast<double>(r.tasks));
    if (v.empty()) continue;
    sum += median(std::move(v));
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<double> setups(const std::vector<SimRep>& reps) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.setup_s);
  return v;
}

const SimRep* first_ok(const std::vector<SimRep>& reps) {
  for (const auto& r : reps)
    if (r.ok) return &r;
  return nullptr;
}

/// Reports the metrics every sim shares, from the fixed-load repetitions.
void report_fixed_load(const SimSpec& spec, const FixedLoadOutcome& fl,
                       bool trace, const QueryRecorder& recorder,
                       Report& report) {
  const auto cpu = [](const SimRep& r) { return r.cpu_s; };
  const auto rel = [](const SimRep& r) { return r.cpu_s / r.ref_s; };
  const auto wall = [](const SimRep& r) { return r.wall_s; };
  const double cpu_rel = 1e6 * per_task(fl.untraced, spec.subs, rel);
  report.e2e("setup_s", median(setups(fl.untraced)), "s");
  report.e2e("cpu_per_task_rel", cpu_rel, "uref");
  report.info("cpu_us_per_task", 1e6 * per_task(fl.untraced, spec.subs, cpu),
              "us", "thread CPU, not normalized");
  const SimRep* ok = first_ok(fl.untraced);
  report.info("sim_tasks_per_s", 1.0 / per_task(fl.untraced, spec.subs, wall),
              "1/s",
              "median over " + std::to_string(fl.untraced.size()) +
                  " fixed-load repetitions" +
                  (ok ? "" : ", counting the tasks placed before each abort"));
  if (ok != nullptr) {
    const auto [worst, count] = worst_group(ok->result);
    report.info("sim_p99_over_slo", worst, "ratio",
                "worst (class, fanout) group, " + std::to_string(count) +
                    " queries");
  }
  if (!trace) return;

  // Per-layer metrics of the traced repetitions.
  const auto& tr = fl.traced;
  const SimConfig cfg = spec.make(0);
  std::uint64_t plan_ns = 0, plans = 0, gap_ns = 0, gap_tasks = 0, tasks = 0,
                queries = 0;
  for (const auto& r : tr) {
    plan_ns += r.plan_ns;
    plans += r.plans;
    gap_ns += r.gap_ns;
    gap_tasks += r.gap_tasks;
    tasks += r.tasks;
    queries += r.queries;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto moves = [&](const std::string& m) {
    const auto it = spec.moves.find(m);
    return it != spec.moves.end() ? it->second
                                  : std::string("cpu_per_task_rel");
  };
  const double traced_rel = 1e6 * per_task(tr, spec.subs, rel);
  report.layer("trace.overhead", ratio(traced_rel, cpu_rel) - 1.0, "share",
               tr.size(), "traced / untraced cpu_per_task_rel - 1",
               "(tracing cost, not a layer)");
  report.layer("path.front_ns", ratio(static_cast<double>(plan_ns),
                                      static_cast<double>(plans)),
               "ns", plans, "per query, placed -> planned (sim.plan_ns)",
               moves("path.front_ns"));
  report.layer("path.back_ns_per_task",
               ratio(static_cast<double>(gap_ns),
                     static_cast<double>(gap_tasks)),
               "ns", gap_tasks,
               "per task, planned -> next placed (sim.gap_ns_per_task)",
               "cpu_per_task_rel");
  report.layer("sim.first_query_s", median([&] {
                 std::vector<double> v;
                 for (const auto& r : tr) v.push_back(r.first_query_s);
                 return v;
               }()),
               "s", tr.size(), "run_simulation entry -> first query",
               "setup_s", false);

  const SimRep* tok = first_ok(tr);
  std::vector<std::shared_ptr<CdfModel>> models = spec.models(cfg);
  LayerInputs in;
  in.classes = cfg.classes;
  in.models = models;
  in.placement = cfg.placement_policy.value_or(PlacementPolicyOptions{});
  in.queries = &recorder;
  in.service = cfg.service_time ? cfg.service_time
                                : cfg.per_server_service.front();
  in.moves = spec.moves;
  {
    // A run that aborted has no SimResult: its counters read 0 with a
    // count of 0, and the drives use the inputs recorded up to the abort.
    const SimResult aborted;
    const SimResult& r = tok != nullptr ? tok->result : aborted;
    const double n_tasks = static_cast<double>(r.tasks_admitted);
    const double n_queries = static_cast<double>(r.queries_admitted);
    in.queue_depth = little_depth(r, cfg.num_servers, spec.mean_service_ms);
    if (r.end_time > 0) in.tasks_per_ms = n_tasks / r.end_time;
    in.miss_share = r.task_deadline_miss_ratio;
    const auto [worst, count] = worst_group(r);
    report.layer("path.allocs_per_task",
                 ratio(static_cast<double>(r.event_loop_allocs), n_tasks),
                 "count", r.tasks_admitted, "event-loop allocations per task",
                 "cpu_per_task_rel");
    report.layer("sim.loop_allocs", static_cast<double>(r.event_loop_allocs),
                 "count", 1, "allocations inside one event loop",
                 "cpu_per_task_rel", false);
    double wall_s = 0.0, vcsw = 0.0, ivcsw = 0.0;
    for (const auto& x : tr) {
      wall_s += x.wall_s;
      vcsw += static_cast<double>(x.vcsw);
      ivcsw += static_cast<double>(x.ivcsw);
    }
    report.layer("path.qps", ratio(static_cast<double>(queries), wall_s),
                 "1/s", queries, "simulated queries per wall second",
                 "cpu_per_task_rel");
    report.layer("path.vcsw_per_task", ratio(vcsw, static_cast<double>(tasks)),
                 "count", tasks, "voluntary context switches per task",
                 "cpu_per_task_rel");
    report.layer("path.ivcsw_per_task",
                 ratio(ivcsw, static_cast<double>(tasks)), "count", tasks,
                 "involuntary context switches per task", "cpu_per_task_rel");
    report.layer("lat.p99_over_slo", worst, "ratio", count,
                 "simulated p99 / SLO, worst (class, fanout) group",
                 "(scheduling outcome; identical for a seed)");
    report.layer("queue.mean_depth", in.queue_depth, "tasks",
                 r.tasks_admitted, "Little's law on fanout-1 mean latency",
                 "edf.push_ns, edf.pop_ns");
    report.layer("deadline.miss_share", r.task_deadline_miss_ratio, "share",
                 r.tasks_admitted, "tasks dequeued after t_D (sim.miss_ratio)",
                 "(scheduling outcome)");
    report.layer("place.decisions", static_cast<double>(r.placement_decisions),
                 "count", 1, "place() calls in one repetition",
                 moves("place.ns"), false);
    report.layer("admit.rejected", static_cast<double>(r.queries_rejected),
                 "count", 1, "queries refused in one repetition",
                 moves("admit.ns"), false);
    report.layer("place.decisions_per_query",
                 ratio(static_cast<double>(r.placement_decisions), n_queries),
                 "count", r.placement_decisions, "place() calls per query",
                 moves("place.ns"));
    report.layer("place.candidates_per_decision",
                 ratio(static_cast<double>(r.placement_candidates_considered),
                       static_cast<double>(r.placement_decisions)),
                 "count", r.placement_decisions, "candidates examined",
                 moves("place.ns"), false);
    report.layer("admit.reject_share",
                 ratio(static_cast<double>(r.queries_rejected),
                       static_cast<double>(r.queries_offered)),
                 "share", r.queries_offered, "queries refused by admission",
                 moves("admit.ns"));
    report.layer("sim.tasks", n_tasks, "count", 1, "tasks per repetition",
                 "cpu_per_task_rel", false);
    report.layer("sim.util", r.measured_utilization, "share",
                 cfg.num_servers, "mean server busy share",
                 "(scheduling outcome)", false);
  }
  if (tok == nullptr)
    report.info("layers", 0, "",
                "no traced repetition completed: SimResult counters read 0 "
                "and the drives use the inputs recorded up to the abort");
  drive_layers(in, 0.15, report);
}

}  // namespace

void run_sim_paper(const RunArgs& args, Report& report) {
  SimSpec spec;
  spec.make = paper_config;
  spec.subs = 8;
  spec.models = [](const SimConfig& cfg) {
    auto model = std::make_shared<DistributionCdfModel>(cfg.service_time);
    return std::vector<std::shared_ptr<CdfModel>>(cfg.num_servers, model);
  };
  spec.mean_service_ms = paper_config(0).service_time->mean();
  spec.moves = {
      {"path.front_ns", "cpu_per_task_rel (about flat: Eq. 6 is a cache hit)"},
      {"budget.ns", "cpu_per_task_rel (about flat: cache hits)"},
      {"place.ns", "none here (place() is bypassed)"},
      {"admit.ns", "none here (no admission)"},
      {"wire.codec_ns_per_task", "none here (no network)"},
      {"wire.bytes_per_task", "none here (no network)"},
  };
  QueryRecorder recorder(1 << 16, 1 << 20);
  const FixedLoadOutcome fl = fixed_load(spec, args.seed, 0.5 * args.seconds,
                                         args.trace, &recorder, report);
  report_fixed_load(spec, fl, args.trace, recorder, report);

  // The max-load search (the paper's figure of merit), repeated for the
  // other half of the run on the engine's default pool.
  const std::size_t threads = ThreadPool::shared().num_threads();
  std::vector<double> maxload_s, util;
  double first_max = -1.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(0.5 * args.seconds * 1e9);
  for (int search = 0; now_ns() < deadline || search < 3; ++search) {
    SimConfig cfg = paper_config(args.seed * spec.subs);
    cfg.num_queries = kSearchQueries;
    const Usage u0 = usage();
    const std::int64_t t0 = now_ns();
    double max_load = 0.0;
    std::string failure;
    try {
      max_load = find_max_load(cfg);
    } catch (const CheckFailure& e) {
      failure = std::string("find_max_load threw CheckFailure: ") + e.what();
    }
    const double wall = 1e-9 * static_cast<double>(now_ns() - t0);
    const Usage u1 = usage();
    report.attempt(failure);
    if (!failure.empty()) continue;
    if (first_max < 0) first_max = max_load;
    report.check(max_load == first_max,
                 "sim: max_load identical across searches of the seed");
    report.check(max_load > 0.02 && max_load < 0.95,
                 "sim: max_load strictly inside the search bracket");
    maxload_s.push_back(wall);
    util.push_back((u1.cpu_s - u0.cpu_s) /
                   (wall * static_cast<double>(threads)));
  }
  report.info("max_load", first_max, "load", "identical in every search");
  report.info("maxload_s", median(maxload_s), "s",
              "median of " + std::to_string(maxload_s.size()) +
                  " searches on " + std::to_string(threads) + " threads");
  if (args.trace)
    report.layer("cpu.util", median(util), "share", util.size(),
                 "CPU s / (wall s x " + std::to_string(threads) +
                     " pool threads), max-load search (maxload.cpu_util)",
                 "maxload_s (reported, not gated: see README)");
}

void run_sim_fleet(const RunArgs& args, Report& report) {
  SimSpec spec;
  spec.make = fleet_config;
  // Many sub-seeds: a repetition that aborts early covers only the first
  // queries, so one traffic draw says little (see README, known defect).
  spec.subs = 32;
  spec.models = [](const SimConfig& cfg) {
    // As the simulator builds them: one streaming model per service-time
    // group, each seeded from a profile of server 0.
    const Distribution& d0 = *cfg.per_server_service.front();
    StreamingCdfModel::Options opt;
    opt.histogram.min_value = std::max(1e-6, d0.quantile(0.001) / 10.0);
    opt.histogram.max_value = std::max(d0.quantile(0.9999) * 100.0,
                                       opt.histogram.min_value * 10.0) *
                              100.0;
    opt.histogram.buckets_per_decade = 200;
    opt.histogram.decay_every = 50000;
    opt.histogram.decay_factor = 0.5;
    opt.refresh_every = 2000;
    Rng rng(cfg.seed);
    std::vector<double> profile(cfg.offline_seed_samples);
    for (auto& x : profile) x = d0.sample(rng);
    std::vector<std::shared_ptr<CdfModel>> models;
    std::map<const Distribution*, std::shared_ptr<CdfModel>> groups;
    for (const auto& d : cfg.per_server_service) {
      auto& m = groups[d.get()];
      if (!m) {
        auto s = std::make_shared<StreamingCdfModel>(opt);
        s->seed(profile);
        m = std::move(s);
      }
      models.push_back(m);
    }
    return models;
  };
  {
    const SimConfig cfg = fleet_config(0);
    double sum = 0.0;
    for (const auto& d : cfg.per_server_service) sum += d->mean();
    spec.mean_service_ms = sum / static_cast<double>(cfg.num_servers);
  }
  spec.moves = {
      {"wire.codec_ns_per_task", "none here (no network)"},
      {"wire.bytes_per_task", "none here (no network)"},
  };
  QueryRecorder recorder(1 << 15, 1 << 20);
  const FixedLoadOutcome fl = fixed_load(spec, args.seed, args.seconds,
                                         args.trace, &recorder, report);
  report_fixed_load(spec, fl, args.trace, recorder, report);
  const SimRep* ok = first_ok(fl.untraced);
  report.info("admit_frac", ok ? ok->result.task_admit_fraction() : 0.0,
              "share", ok ? "tasks admitted / offered" : "no run completed");
  if (args.trace) {
    std::vector<double> util;
    for (const auto& r : fl.untraced)
      if (r.wall_s > 0) util.push_back(r.cpu_s / r.wall_s);
    report.layer("cpu.util", median(util), "share", util.size(),
                 "thread CPU s / wall s, fixed-load run (1 thread)",
                 "cpu_per_task_rel");
  }
}

}  // namespace perfbench
