// Tests for the discrete-event simulator: conservation, work-conservation
// consequences, policy degeneracies, determinism, admission behaviour and
// load accounting.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "dist/standard.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workloads/tailbench.h"

namespace tailguard {
namespace {

SimConfig base_config() {
  SimConfig cfg;
  cfg.num_servers = 20;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 4, 16},
      std::vector<double>{0.6, 0.3, 0.1});
  cfg.service_time = std::make_shared<Exponential>(1.0);
  cfg.num_queries = 20000;
  cfg.seed = 42;
  return cfg;
}

TEST(Simulator, AllQueriesComplete) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.5);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_offered, cfg.num_queries);
  EXPECT_EQ(r.queries_admitted, cfg.num_queries);
  EXPECT_EQ(r.queries_rejected, 0u);
  std::uint64_t recorded = 0;
  for (const auto& g : r.groups) recorded += g.queries;
  // Post-warmup queries are recorded; warmup is 10%.
  EXPECT_NEAR(static_cast<double>(recorded),
              0.9 * static_cast<double>(cfg.num_queries),
              0.02 * static_cast<double>(cfg.num_queries));
}

TEST(Simulator, GroupsMatchFanoutSupport) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.4);
  const SimResult r = run_simulation(cfg);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].fanout, 1u);
  EXPECT_EQ(r.groups[1].fanout, 4u);
  EXPECT_EQ(r.groups[2].fanout, 16u);
  // 0.6 / 0.3 / 0.1 mix.
  const double total = static_cast<double>(r.groups[0].queries +
                                           r.groups[1].queries +
                                           r.groups[2].queries);
  EXPECT_NEAR(r.groups[0].queries / total, 0.6, 0.02);
  EXPECT_NEAR(r.groups[1].queries / total, 0.3, 0.02);
}

TEST(Simulator, LatencyAtLeastMaxUnloadedTask) {
  // Query latency >= its slowest task's service time; in aggregate the mean
  // query latency for fanout k must exceed the mean of the max of k service
  // draws. Sanity-check against the fanout-1 group: mean latency >= mean
  // service time.
  SimConfig cfg = base_config();
  set_load(cfg, 0.3);
  const SimResult r = run_simulation(cfg);
  const auto* g1 = r.find_group(0, 1);
  ASSERT_NE(g1, nullptr);
  EXPECT_GE(g1->mean_latency_ms, 0.95 * cfg.service_time->mean());
}

TEST(Simulator, HigherLoadHigherTail) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.2);
  const SimResult light = run_simulation(cfg);
  set_load(cfg, 0.85);
  const SimResult heavy = run_simulation(cfg);
  EXPECT_GT(heavy.groups[0].tail_latency_ms, light.groups[0].tail_latency_ms);
  EXPECT_GT(heavy.measured_utilization, light.measured_utilization);
}

TEST(Simulator, MeasuredUtilizationTracksOfferedLoad) {
  SimConfig cfg = base_config();
  for (double load : {0.3, 0.6}) {
    set_load(cfg, load);
    const SimResult r = run_simulation(cfg);
    EXPECT_NEAR(r.measured_utilization, load, 0.06) << "load=" << load;
  }
}

TEST(Simulator, DeterministicForSameSeed) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.5);
  const SimResult a = run_simulation(cfg);
  const SimResult b = run_simulation(cfg);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.groups[i].tail_latency_ms, b.groups[i].tail_latency_ms);
    EXPECT_EQ(a.groups[i].queries, b.groups[i].queries);
  }
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
}

TEST(Simulator, SeedChangesResults) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.5);
  const SimResult a = run_simulation(cfg);
  cfg.seed = 43;
  const SimResult b = run_simulation(cfg);
  EXPECT_NE(a.end_time, b.end_time);
}

TEST(Simulator, SingleClassPolicyDegeneracy) {
  // §III.A: with one class, PRIQ and T-EDFQ behave exactly like FIFO. With
  // common random numbers (pre-sampled service times) the simulated
  // schedules are identical, so results match bit-for-bit.
  SimConfig cfg = base_config();
  set_load(cfg, 0.7);
  cfg.policy = Policy::kFifo;
  const SimResult fifo = run_simulation(cfg);
  cfg.policy = Policy::kPriq;
  const SimResult priq = run_simulation(cfg);
  cfg.policy = Policy::kTEdf;
  const SimResult tedf = run_simulation(cfg);
  ASSERT_EQ(fifo.groups.size(), priq.groups.size());
  for (std::size_t i = 0; i < fifo.groups.size(); ++i) {
    EXPECT_DOUBLE_EQ(fifo.groups[i].tail_latency_ms, priq.groups[i].tail_latency_ms);
    EXPECT_DOUBLE_EQ(fifo.groups[i].tail_latency_ms, tedf.groups[i].tail_latency_ms);
  }
}

TEST(Simulator, FixedFanoutTfEdfEqualsTEdf) {
  // §IV.C: when every query has the same fanout, TF-EDFQ's deadline differs
  // from T-EDFQ's by a per-class constant... with a single percentile the
  // constant is the same for both classes, so the ordering — and hence the
  // whole schedule — is identical.
  SimConfig cfg = base_config();
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0},
                 {.slo_ms = 15.0, .percentile = 99.0}};
  cfg.class_probabilities = {0.5, 0.5};
  cfg.fanout = std::make_shared<FixedFanout>(16);
  set_load(cfg, 0.7);
  cfg.policy = Policy::kTEdf;
  const SimResult tedf = run_simulation(cfg);
  cfg.policy = Policy::kTfEdf;
  const SimResult tfedf = run_simulation(cfg);
  ASSERT_EQ(tedf.groups.size(), tfedf.groups.size());
  for (std::size_t i = 0; i < tedf.groups.size(); ++i)
    EXPECT_DOUBLE_EQ(tedf.groups[i].tail_latency_ms,
                     tfedf.groups[i].tail_latency_ms);
}

TEST(Simulator, AdmissionControlCapsMissRatio) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.9);  // heavy overload
  const SimResult uncontrolled = run_simulation(cfg);

  cfg.admission = AdmissionOptions{.window_tasks = 2000,
                                   .window_ms = 50.0,
                                   .miss_ratio_threshold = 0.02};
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.queries_rejected, 0u);
  EXPECT_EQ(r.queries_offered, cfg.num_queries);
  EXPECT_LT(r.task_admit_fraction(), 1.0);
  // The accepted workload should be roughly sustainable: far fewer misses
  // than the uncontrolled run at the same offered load.
  EXPECT_LT(r.task_deadline_miss_ratio,
            0.5 * uncontrolled.task_deadline_miss_ratio);
}

TEST(Simulator, NoAdmissionMeansNoRejections) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.9);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_rejected, 0u);
  EXPECT_DOUBLE_EQ(r.task_admit_fraction(), 1.0);
}

TEST(Simulator, ParetoArrivalsDegradeTail) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.6);
  const SimResult poisson = run_simulation(cfg);
  cfg.arrival_kind = ArrivalKind::kPareto;
  const SimResult pareto = run_simulation(cfg);
  // Burstier arrivals at equal mean load push the p99 up (Fig. 5b shows
  // max loads dropping by a few percent).
  EXPECT_GT(pareto.groups[0].tail_latency_ms,
            0.9 * poisson.groups[0].tail_latency_ms);
}

TEST(Simulator, ClassFanoutCoupling) {
  SimConfig cfg = base_config();
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0},
                 {.slo_ms = 20.0, .percentile = 99.0}};
  cfg.class_probabilities = {0.5, 0.5};
  cfg.fanout = nullptr;
  cfg.class_fanout = [](Rng&, ClassId cls) -> std::uint32_t {
    return cls == 0 ? 2 : 8;
  };
  cfg.arrival_rate = 1.0;
  const SimResult r = run_simulation(cfg);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0].cls, 0u);
  EXPECT_EQ(r.groups[0].fanout, 2u);
  EXPECT_EQ(r.groups[1].cls, 1u);
  EXPECT_EQ(r.groups[1].fanout, 8u);
}

TEST(Simulator, CustomPlacementIsHonoured) {
  SimConfig cfg = base_config();
  cfg.fanout = std::make_shared<FixedFanout>(1);
  // Everything lands on server 0: it should saturate while others idle.
  cfg.placement = [](Rng&, ClassId, std::uint32_t kf,
                     std::vector<ServerId>& out) {
    out.assign(kf, 0);
  };
  cfg.arrival_rate = 0.9;  // per ms; server 0 alone has capacity 1.0/ms
  const SimResult r = run_simulation(cfg);
  // Mean utilization across 20 servers ≈ 0.9 / 20.
  EXPECT_NEAR(r.measured_utilization, 0.045, 0.01);
  EXPECT_GT(r.groups[0].tail_latency_ms, 1.0);  // queuing on the hot server
}

TEST(Simulator, EstimatedCdfsTrackExactEstimation) {
  // §III.B.2: deadline estimation from profiled/streamed CDFs should behave
  // like estimation from the true CDFs. Same seed => same arrivals, so the
  // per-group tails must agree closely across estimation modes.
  SimConfig cfg = base_config();
  set_load(cfg, 0.4);
  cfg.estimation = EstimationMode::kExact;
  const SimResult exact = run_simulation(cfg);
  for (auto mode :
       {EstimationMode::kOfflineEmpirical, EstimationMode::kOnlineStreaming}) {
    cfg.estimation = mode;
    const SimResult est = run_simulation(cfg);
    ASSERT_EQ(est.groups.size(), exact.groups.size());
    for (std::size_t i = 0; i < est.groups.size(); ++i) {
      EXPECT_NEAR(est.groups[i].tail_latency_ms, exact.groups[i].tail_latency_ms,
                  0.05 * exact.groups[i].tail_latency_ms)
          << "mode=" << static_cast<int>(mode) << " group " << i;
    }
  }
}

TEST(Simulator, OnlineStreamingEstimationMeetsSloAtModerateLoad) {
  SimConfig cfg = base_config();
  cfg.estimation = EstimationMode::kOnlineStreaming;
  set_load(cfg, 0.2);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_admitted, cfg.num_queries);
  EXPECT_TRUE(r.all_slos_met(0.05));
}

TEST(Simulator, TraceReplayMatchesGenerativeStatistics) {
  // A replayed trace produced by the same models at the same rate should
  // give statistically similar results to generative mode.
  SimConfig cfg = base_config();
  set_load(cfg, 0.5);
  const SimResult generative = run_simulation(cfg);

  TraceSpec spec;
  spec.num_queries = cfg.num_queries;
  Rng trace_rng(99);
  PoissonProcess arrivals(cfg.arrival_rate);
  cfg.trace = generate_trace(spec, arrivals, *cfg.fanout, trace_rng);
  const SimResult replayed = run_simulation(cfg);

  EXPECT_EQ(replayed.queries_offered, cfg.num_queries);
  ASSERT_EQ(replayed.groups.size(), generative.groups.size());
  for (std::size_t i = 0; i < replayed.groups.size(); ++i) {
    EXPECT_NEAR(replayed.groups[i].tail_latency_ms,
                generative.groups[i].tail_latency_ms,
                0.25 * generative.groups[i].tail_latency_ms)
        << "group " << i;
  }
}

TEST(Simulator, TraceReplayIsExactlyReproducible) {
  SimConfig cfg = base_config();
  TraceSpec spec;
  spec.num_queries = 5000;
  Rng trace_rng(7);
  PoissonProcess arrivals(2.0);
  cfg.trace = generate_trace(spec, arrivals, *cfg.fanout, trace_rng);
  const SimResult a = run_simulation(cfg);
  const SimResult b = run_simulation(cfg);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.groups[0].queries, b.groups[0].queries);
}

TEST(Simulator, RequestModeRunsSequentialQueries) {
  SimConfig cfg = base_config();
  cfg.fanout = std::make_shared<FixedFanout>(4);
  cfg.request = SimConfig::RequestSpec{
      .queries_per_request = 3,
      .query_budgets = {3.0, 3.0, 3.0},
      .query_fanouts = {},
      .request_slo = {.slo_ms = 30.0, .percentile = 99.0}};
  cfg.arrival_rate = 0.5;
  cfg.num_queries = 5000;  // 5000 requests -> 15000 queries
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.requests_recorded, 4000u);
  // A request of 3 sequential queries is at least as slow as one query.
  const auto* g = r.find_group(0, 4);
  ASSERT_NE(g, nullptr);
  EXPECT_GT(r.request_mean_latency_ms, 2.5 * g->mean_latency_ms);
  EXPECT_GT(r.request_tail_latency_ms, g->tail_latency_ms);
}

TEST(Simulator, RequestModeBudgetsActAsDeadlines) {
  // With generous budgets the request SLO is met at light load.
  SimConfig cfg = base_config();
  cfg.fanout = std::make_shared<FixedFanout>(2);
  cfg.request = SimConfig::RequestSpec{
      .queries_per_request = 2,
      .query_budgets = {10.0, 10.0},
      .query_fanouts = {},
      .request_slo = {.slo_ms = 40.0, .percentile = 99.0}};
  cfg.arrival_rate = 0.2;
  cfg.num_queries = 5000;
  const SimResult r = run_simulation(cfg);
  EXPECT_TRUE(r.request_slo_met);
  EXPECT_LT(r.task_deadline_miss_ratio, 0.05);
}

TEST(Simulator, RequestModeValidation) {
  SimConfig cfg = base_config();
  cfg.request = SimConfig::RequestSpec{.queries_per_request = 2,
                                       .query_budgets = {1.0},  // wrong size
                                       .query_fanouts = {},
                                       .request_slo = {.slo_ms = 10.0}};
  cfg.arrival_rate = 1.0;
  EXPECT_THROW(run_simulation(cfg), CheckFailure);
}

TEST(Simulator, TaskBudgetJitterChangesScheduleButConservesWork) {
  SimConfig cfg = base_config();
  set_load(cfg, 0.6);
  const SimResult equal = run_simulation(cfg);
  cfg.task_budget_jitter = 0.5;
  const SimResult jittered = run_simulation(cfg);
  // Same offered queries, different schedule.
  EXPECT_EQ(jittered.queries_offered, equal.queries_offered);
  EXPECT_NE(jittered.groups[0].tail_latency_ms, equal.groups[0].tail_latency_ms);
  EXPECT_NEAR(jittered.measured_utilization, equal.measured_utilization,
              0.05);
}

TEST(Simulator, TaskBudgetJitterDoesNotRaiseMaxLoad) {
  // Footnote 4: assigning every task of a query the same budget minimises
  // resource demand; skewed per-task budgets must not *increase* the max
  // load at which the SLO is met (coarse search; the precise comparison is
  // bench/ablation_budget_split).
  SimConfig cfg = base_config();
  cfg.num_queries = 8000;
  MaxLoadOptions opt;
  opt.tolerance = 0.04;
  const double equal_load = find_max_load(cfg, opt);
  cfg.task_budget_jitter = 1.0;
  const double jitter_load = find_max_load(cfg, opt);
  EXPECT_LE(jitter_load, equal_load + 2.0 * opt.tolerance);
}

TEST(Simulator, WorkConservationSingleServer) {
  // One server, saturating arrivals: the end time must equal (first
  // arrival) + (total service demand) — the server never idles while work
  // is queued, for every policy.
  for (Policy policy : {Policy::kFifo, Policy::kPriq, Policy::kTEdf,
                        Policy::kTfEdf}) {
    SimConfig cfg;
    cfg.num_servers = 1;
    cfg.policy = policy;
    cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0},
                   {.slo_ms = 2.0, .percentile = 99.0}};
    cfg.class_probabilities = {0.5, 0.5};
    cfg.fanout = std::make_shared<FixedFanout>(1);
    cfg.service_time = std::make_shared<Uniform>(0.5, 1.5);  // mean 1
    cfg.num_queries = 2000;
    cfg.seed = 77;
    cfg.arrival_rate = 5.0;  // 5x overload: the queue never drains
    const SimResult r = run_simulation(cfg);
    // All arrivals land within ~2000/5 = 400 ms; total work ~ 2000 ms.
    // Busy fraction from the first arrival on must be ~1.
    EXPECT_GT(r.measured_utilization, 0.98) << to_string(policy);
    EXPECT_NEAR(r.end_time, 2000.0, 60.0) << to_string(policy);
  }
}

TEST(Simulator, NetworkDelaysAddToLatency) {
  SimConfig cfg = base_config();
  cfg.fanout = std::make_shared<FixedFanout>(1);
  set_load(cfg, 0.05);
  const SimResult base = run_simulation(cfg);
  cfg.dispatch_delay_ms = std::make_shared<Deterministic>(3.0);
  cfg.result_delay_ms = std::make_shared<Deterministic>(2.0);
  const SimResult delayed = run_simulation(cfg);
  // Every query gains exactly dispatch + result = 5 ms at light load.
  EXPECT_NEAR(delayed.groups[0].mean_latency_ms,
              base.groups[0].mean_latency_ms + 5.0, 0.15);
  EXPECT_EQ(delayed.queries_admitted, cfg.num_queries);
}

TEST(Simulator, DispatchDelayConsumesBudget) {
  // With dispatch delay larger than the pre-dequeuing budget, every task is
  // dequeued past its deadline even on an idle cluster.
  SimConfig cfg = base_config();
  cfg.fanout = std::make_shared<FixedFanout>(2);
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  set_load(cfg, 0.05);
  const SimResult no_delay_ms = run_simulation(cfg);
  EXPECT_LT(no_delay_ms.task_deadline_miss_ratio, 0.05);
  cfg.dispatch_delay_ms = std::make_shared<Deterministic>(20.0);  // > SLO
  const SimResult delayed = run_simulation(cfg);
  EXPECT_GT(delayed.task_deadline_miss_ratio, 0.95);
}

TEST(Simulator, ResultDelayDefersAdmissionSignal) {
  // Admission control still functions when misses are piggybacked on
  // delayed results (§III.C).
  SimConfig cfg = base_config();
  cfg.result_delay_ms = std::make_shared<Uniform>(0.5, 1.5);
  cfg.admission = AdmissionOptions{.window_tasks = 2000,
                                   .window_ms = 50.0,
                                   .miss_ratio_threshold = 0.02};
  set_load(cfg, 0.9);
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.queries_rejected, 0u);
  EXPECT_EQ(r.queries_offered, cfg.num_queries);
}

TEST(Simulator, NetworkDelaysConserveQueries) {
  SimConfig cfg = base_config();
  cfg.dispatch_delay_ms = std::make_shared<Exponential>(1.0);
  cfg.result_delay_ms = std::make_shared<Exponential>(2.0);
  set_load(cfg, 0.5);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_admitted, cfg.num_queries);
  std::uint64_t recorded = 0;
  for (const auto& g : r.groups) recorded += g.queries;
  EXPECT_GT(recorded, 0.85 * cfg.num_queries);
}

TEST(Simulator, OnlineEstimatorSeesResultDelay) {
  // The post-queuing time observed by the handler includes the result
  // network delay (paper §III.B.2: current time minus dequeue time), so the
  // online model's quantiles exceed the bare service quantiles.
  SimConfig cfg = base_config();
  cfg.fanout = std::make_shared<FixedFanout>(1);
  cfg.classes = {{.slo_ms = 60.0, .percentile = 99.0}};
  cfg.estimation = EstimationMode::kOnlineStreaming;
  cfg.offline_seed_samples = 100;  // let online observations dominate
  cfg.result_delay_ms = std::make_shared<Deterministic>(7.0);
  set_load(cfg, 0.3);
  const SimResult r = run_simulation(cfg);
  // Latency now ~ service + wait + 7; at this load the p99 must clearly
  // exceed service-only p99 (~4.6 for exp(1)) plus the delay.
  EXPECT_GT(r.groups[0].tail_latency_ms, 7.0 + 4.0);
}

TEST(Simulator, TraceWithUnknownClassThrows) {
  SimConfig cfg = base_config();  // one class
  cfg.trace = {QueryRecord{.arrival_ms = 1.0, .class_id = 3, .fanout = 1}};
  EXPECT_THROW(run_simulation(cfg), CheckFailure);
}

TEST(Simulator, ValidatesConfig) {
  SimConfig cfg = base_config();
  cfg.arrival_rate = 0.0;
  EXPECT_THROW(run_simulation(cfg), CheckFailure);
  cfg = base_config();
  cfg.classes.clear();
  cfg.arrival_rate = 1.0;
  EXPECT_THROW(run_simulation(cfg), CheckFailure);
  cfg = base_config();
  cfg.fanout = nullptr;
  cfg.arrival_rate = 1.0;
  EXPECT_THROW(run_simulation(cfg), CheckFailure);
  cfg = base_config();
  cfg.class_probabilities = {0.5};  // size mismatch with 1 class? matches...
  cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0},
                 {.slo_ms = 2.0, .percentile = 99.0}};
  cfg.arrival_rate = 1.0;
  EXPECT_THROW(run_simulation(cfg), CheckFailure);
}

// ------------------------------------------------------------ experiment

TEST(Experiment, RateForLoadInvertsWork) {
  SimConfig cfg = base_config();
  // E[k] = 0.6*1 + 0.3*4 + 0.1*16 = 3.4; mean service 1 ms; 20 servers.
  EXPECT_NEAR(expected_work_per_query(cfg), 3.4, 1e-12);
  EXPECT_NEAR(rate_for_load(cfg, 0.5), 0.5 * 20 / 3.4, 1e-12);
}

TEST(Experiment, SetLoadHonoursOverrides) {
  SimConfig cfg = base_config();
  MaxLoadOptions opt;
  opt.work_per_query = 2.0;
  opt.capacity_servers = 10.0;
  set_load(cfg, 0.5, opt);
  EXPECT_NEAR(cfg.arrival_rate, 0.5 * 10.0 / 2.0, 1e-12);
}

TEST(Experiment, FindMaxLoadBrackets) {
  SimConfig cfg = base_config();
  cfg.num_queries = 8000;
  cfg.classes = {{.slo_ms = 8.0, .percentile = 99.0}};
  MaxLoadOptions opt;
  opt.lo = 0.05;
  opt.hi = 0.95;
  opt.tolerance = 0.05;
  const double max_load = find_max_load(cfg, opt);
  EXPECT_GT(max_load, 0.05);
  EXPECT_LT(max_load, 0.95);
  // Feasible at the returned load...
  set_load(cfg, max_load, opt);
  EXPECT_TRUE(run_simulation(cfg).all_slos_met(0.02));
}

TEST(Experiment, SweepLoadsReturnsOnePointPerLoad) {
  SimConfig cfg = base_config();
  cfg.num_queries = 4000;
  const auto points = sweep_loads(cfg, {0.2, 0.4, 0.6});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].load, 0.2);
  EXPECT_LT(points[0].result.groups[0].tail_latency_ms,
            points[2].result.groups[0].tail_latency_ms);
}

TEST(Experiment, ScaledQueriesEnvelope) {
  // Scale 1 is the identity, subject to the 1000 floor.
  EXPECT_EQ(scaled_queries(50000, 1.0), 50000u);
  EXPECT_EQ(scaled_queries(10, 1.0), 1000u);
  EXPECT_EQ(scaled_queries(50000, 0.2), 10000u);
  // The scale is clamped to [0.05, 100].
  EXPECT_EQ(scaled_queries(100000, 0.001), 5000u);
  EXPECT_EQ(scaled_queries(100000, 1e6), 10000000u);
}

}  // namespace
}  // namespace tailguard
