// Tests for the pluggable placement subsystem (core/placement/):
//
//   * least_loaded through the policy layer is bit-identical to the raw
//     pick_least_loaded it replaced (same picks, same Rng stream);
//   * pow_d is deterministic for a fixed seed, distinct while possible, and
//     degenerates to a global least-loaded scan at d >= n;
//   * tail_risk's risk bands rank servers the way the scoring model says
//     (full-data misses in [0,1), partial data in [1,2), budget-exceeded
//     backlog in [2,inf)), driven by hand-built slack histograms;
//   * the control plane feeds slack on enqueue, accounts staleness per
//     decision, and exposes the per-policy counters;
//   * in-place percentile selection never perturbs the means computed
//     before it (floating-point sums are order-sensitive) and matches the
//     copying percentile exactly;
//   * the three execution backends produce the identical placement sequence
//     under pow_d with a shared seed — the cross-backend parity contract
//     extended to placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/control_plane.h"
#include "core/placement.h"
#include "core/placement/policy.h"
#include "core/placement/slack_tracker.h"
#include "dist/standard.h"
#include "net/dispatcher.h"
#include "net/task_server.h"
#include "runtime/service.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workloads/trace.h"

namespace tailguard {
namespace {

std::vector<std::shared_ptr<CdfModel>> fixed_models(std::size_t n,
                                                    double value_ms) {
  std::vector<std::shared_ptr<CdfModel>> models;
  models.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    models.push_back(std::make_shared<DistributionCdfModel>(
        std::make_shared<Deterministic>(value_ms)));
  return models;
}

ControlPlaneOptions plane_options(PlacementPolicyKind kind,
                                  std::uint64_t seed = 42) {
  ControlPlaneOptions options;
  options.policy = Policy::kTfEdf;
  options.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
  options.placement.kind = kind;
  options.seed = seed;
  return options;
}

std::vector<PlacementCandidate> random_candidates(std::size_t n, Rng& rng) {
  std::vector<PlacementCandidate> candidates;
  candidates.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    candidates.emplace_back(rng.uniform_index(5), static_cast<ServerId>(i));
  return candidates;
}

// ------------------------------------------------------------ least_loaded

TEST(PlacementPolicy, LeastLoadedBitIdenticalToRawPicker) {
  // Same candidates, same seed: the policy must produce the same picks AND
  // leave the Rng in the same state (the sim's bit-parity contract hinges on
  // identical draw counts).
  Rng fill(7);
  for (std::size_t count : {0u, 1u, 3u, 5u, 9u}) {
    const auto candidates = random_candidates(6, fill);
    Rng raw_rng(123), policy_rng(123);
    const auto raw = pick_least_loaded(candidates, count, raw_rng);

    LeastLoadedPolicy policy;
    auto scratch = candidates;
    std::vector<ServerId> out;
    const std::size_t examined =
        policy.place(scratch, count, PlacementContext{}, policy_rng, out);

    EXPECT_EQ(out, raw) << "count=" << count;
    EXPECT_EQ(examined, count == 0 ? 0u : candidates.size());
    EXPECT_EQ(raw_rng.uniform_index(1u << 20), policy_rng.uniform_index(1u << 20))
        << "Rng streams diverged at count=" << count;
  }
}

TEST(PlacementPolicy, ControlPlaneDefaultPlaceMatchesRawPicker) {
  // The facade's place() under the default policy is the pre-refactor
  // place_least_loaded, draw for draw.
  const std::uint64_t seed = 99;
  QueryControlPlane cp(plane_options(PlacementPolicyKind::kLeastLoaded, seed),
                       fixed_models(4, 5.0));
  EXPECT_EQ(cp.placement_kind(), PlacementPolicyKind::kLeastLoaded);
  EXPECT_FALSE(cp.slack_tracking_enabled());

  Rng reference(seed);
  Rng fill(11);
  for (int round = 0; round < 5; ++round) {
    const auto candidates = random_candidates(4, fill);
    EXPECT_EQ(cp.place(candidates, 2),
              pick_least_loaded(candidates, 2, reference))
        << "round " << round;
  }
  EXPECT_EQ(cp.placement_stats().decisions, 5u);
  EXPECT_EQ(cp.placement_stats().candidates_considered, 20u);
  EXPECT_EQ(cp.placement_stats().decisions_with_slack, 0u);
}

// ------------------------------------------------------------------ pow_d

TEST(PlacementPolicy, PowerOfDDeterministicForFixedSeed) {
  const auto run = [](std::uint64_t seed) {
    PowerOfDPolicy policy(2);
    Rng rng(seed);
    Rng fill(3);
    std::vector<std::vector<ServerId>> sequence;
    for (int q = 0; q < 50; ++q) {
      auto candidates = random_candidates(8, fill);
      std::vector<ServerId> out;
      policy.place(candidates, 3, PlacementContext{}, rng, out);
      sequence.push_back(out);
    }
    return sequence;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6)) << "different seeds should explore differently";
}

TEST(PlacementPolicy, PowerOfDPicksAreDistinctWhilePossible) {
  PowerOfDPolicy policy(2);
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    std::vector<PlacementCandidate> candidates;
    for (std::size_t i = 0; i < 5; ++i)
      candidates.emplace_back(1, static_cast<ServerId>(i));
    std::vector<ServerId> out;
    // count == n: every server exactly once (a permutation).
    policy.place(candidates, 5, PlacementContext{}, rng, out);
    EXPECT_EQ(std::set<ServerId>(out.begin(), out.end()).size(), 5u);
    // count > n: round-robin reuse — each server appears exactly twice.
    policy.place(candidates, 10, PlacementContext{}, rng, out);
    for (ServerId s = 0; s < 5; ++s)
      EXPECT_EQ(std::count(out.begin(), out.end(), s), 2) << "server " << s;
  }
}

TEST(PlacementPolicy, PowerOfDDegeneratesToGlobalScanAtLargeD) {
  // d >= n examines every remaining candidate per pick, so with distinct
  // loads the result is the globally least-loaded set in ascending order —
  // no randomness left in the outcome.
  PowerOfDPolicy policy(64);
  Rng rng(29);
  std::vector<PlacementCandidate> candidates = {
      {7, 0}, {2, 1}, {9, 2}, {1, 3}, {4, 4}, {6, 5}};
  std::vector<ServerId> out;
  const std::size_t examined =
      policy.place(candidates, 3, PlacementContext{}, rng, out);
  EXPECT_EQ(out, (std::vector<ServerId>{3, 1, 4}));
  EXPECT_EQ(examined, 6u + 5u + 4u);
}

// -------------------------------------------------------------- tail_risk

TEST(PlacementPolicy, TailRiskBandsOrderColdFeasibleAndOverloaded) {
  const StreamingHistogramOptions histo =
      PlacementPolicyOptions{}.slack_histogram;
  SlackTracker tracker(3, histo);
  PlacementContext ctx;
  ctx.slack = &tracker;
  ctx.budget_hint_ms = 10.0;
  ctx.now_ms = 100.0;

  // Cold servers (no slack data): partial band [1,2), ranked by load.
  EXPECT_DOUBLE_EQ(SlackTailRiskPolicy::risk_of(0, 0, ctx), 1.0);
  EXPECT_GT(SlackTailRiskPolicy::risk_of(3, 0, ctx),
            SlackTailRiskPolicy::risk_of(1, 0, ctx));
  EXPECT_LT(SlackTailRiskPolicy::risk_of(1000, 0, ctx), 2.0);

  // Server 1: relaxed queue (all slack far above the budget) and fast
  // observed service — the full-data band, risk < 1.
  for (int i = 0; i < 200; ++i) {
    tracker.record_enqueue(1, 500.0, 50.0);
    tracker.record_service(1, 1.0);
  }
  const double relaxed = SlackTailRiskPolicy::risk_of(4, 1, ctx);
  EXPECT_GE(relaxed, 0.0);
  EXPECT_LT(relaxed, 1.0);

  // Server 2: urgent queue (slack below the budget) and slow service — the
  // expected urgent backlog alone exceeds the budget, risk >= 2.
  for (int i = 0; i < 200; ++i) {
    tracker.record_enqueue(2, 2.0, 50.0);
    tracker.record_service(2, 8.0);
  }
  const double urgent = SlackTailRiskPolicy::risk_of(4, 2, ctx);
  EXPECT_GE(urgent, 2.0);

  // Equal load, worlds apart in risk: relaxed < cold < urgent.
  EXPECT_LT(relaxed, SlackTailRiskPolicy::risk_of(4, 0, ctx));
  EXPECT_LT(SlackTailRiskPolicy::risk_of(4, 0, ctx), urgent);
}

TEST(PlacementPolicy, TailRiskPrefersRelaxedServerOverUrgentAtEqualLoad) {
  const StreamingHistogramOptions histo =
      PlacementPolicyOptions{}.slack_histogram;
  SlackTracker tracker(2, histo);
  for (int i = 0; i < 200; ++i) {
    tracker.record_enqueue(0, 1.0, 10.0);    // urgent backlog on server 0
    tracker.record_service(0, 5.0);
    tracker.record_enqueue(1, 200.0, 10.0);  // relaxed backlog on server 1
    tracker.record_service(1, 5.0);
  }
  PlacementContext ctx;
  ctx.slack = &tracker;
  ctx.budget_hint_ms = 8.0;
  SlackTailRiskPolicy policy;
  Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    std::vector<PlacementCandidate> candidates = {{3, 0}, {3, 1}};
    std::vector<ServerId> out;
    const std::size_t examined = policy.place(candidates, 1, ctx, rng, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1u) << "equal load must not mask the slack signal";
    EXPECT_EQ(examined, 2u);
  }
}

TEST(PlacementPolicy, TailRiskWithoutAnyDataRanksByLoad) {
  const StreamingHistogramOptions histo =
      PlacementPolicyOptions{}.slack_histogram;
  SlackTracker tracker(3, histo);
  PlacementContext ctx;
  ctx.slack = &tracker;
  SlackTailRiskPolicy policy;
  Rng rng(37);
  std::vector<PlacementCandidate> candidates = {{9, 0}, {1, 1}, {4, 2}};
  std::vector<ServerId> out;
  policy.place(candidates, 2, ctx, rng, out);
  EXPECT_EQ(out, (std::vector<ServerId>{1, 2}));
}

TEST(PlacementPolicy, ControlPlaneFeedsSlackAndAccountsStaleness) {
  QueryControlPlane cp(plane_options(PlacementPolicyKind::kTailRisk),
                       fixed_models(4, 5.0));
  EXPECT_EQ(cp.placement_kind(), PlacementPolicyKind::kTailRisk);
  ASSERT_TRUE(cp.slack_tracking_enabled());

  // No slack data yet: the decision is counted, but not as slack-informed.
  cp.place({{0, 0}, {0, 1}, {0, 2}, {0, 3}}, 2, 0, 50.0);
  EXPECT_EQ(cp.placement_stats().decisions, 1u);
  EXPECT_EQ(cp.placement_stats().candidates_considered, 4u);
  EXPECT_EQ(cp.placement_stats().decisions_with_slack, 0u);

  // begin_query records each placed task's budget as a slack observation on
  // its server, timestamped t0.
  const QueryPlan plan = cp.begin_query(100.0, 0, {{0, 1}});
  EXPECT_GT(plan.budget_ms, 0.0);
  ASSERT_NE(cp.slack_tracker(), nullptr);
  EXPECT_EQ(cp.slack_tracker()->slack_observations(0), 1u);
  EXPECT_EQ(cp.slack_tracker()->slack_observations(1), 1u);
  EXPECT_EQ(cp.slack_tracker()->slack_observations(2), 0u);

  // A decision 30 ms later: two of four candidates carry slack data aged
  // exactly 30 ms, so the decision's mean staleness is 30.
  cp.place({{0, 0}, {0, 1}, {0, 2}, {0, 3}}, 2, 0, 130.0);
  const PlacementStats stats = cp.placement_stats();
  EXPECT_EQ(stats.decisions, 2u);
  EXPECT_EQ(stats.decisions_with_slack, 1u);
  EXPECT_DOUBLE_EQ(stats.slack_staleness_ms_sum, 30.0);

  // Completions feed the service-time histograms.
  cp.observe_post_queuing(0, 4.0);
  EXPECT_GT(cp.slack_tracker()->mean_service_ms(0), 0.0);
}

// ------------------------------------------------- in-place percentile math

TEST(PlacementStatsMath, PercentileInplaceMatchesCopyingPercentile) {
  Rng rng(41);
  std::vector<double> values(997);
  for (auto& v : values) v = rng.uniform() * 100.0;
  const std::vector<double> pristine = values;

  // Stacked in-place calls: selection permutes but never changes the
  // multiset, so later percentiles still see the same sample.
  for (double p : {50.0, 95.0, 99.0, 0.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_inplace(values, p), percentile(pristine, p))
        << "p=" << p;
  }
  auto sorted_now = values;
  auto sorted_orig = pristine;
  std::sort(sorted_now.begin(), sorted_now.end());
  std::sort(sorted_orig.begin(), sorted_orig.end());
  EXPECT_EQ(sorted_now, sorted_orig) << "selection must preserve the multiset";
}

TEST(PlacementStatsMath, MeansAreComputedBeforeInPlaceSelection) {
  // Floating-point sums are order-sensitive: 1e17's ulp is 16, so summing
  // this sample in insertion order fully absorbs the 3
  // (1e17 + 3 - 1e17 + 4 = 4, mean 1.0), while any order nth_element would
  // leave behind — -1e17 partitioned to the front, 1e17 to the back —
  // absorbs both small values (mean 0.0). tail_and_mean must report the
  // insertion-order mean, i.e. take the mean BEFORE selecting.
  LatencySample sample;
  sample.add(1e17);
  sample.add(3.0);
  sample.add(-1e17);
  sample.add(4.0);
  const auto tm = sample.tail_and_mean(50.0);
  EXPECT_DOUBLE_EQ(tm.mean_ms, 1.0);
  const std::vector<double> pristine = {1e17, 3.0, -1e17, 4.0};
  EXPECT_DOUBLE_EQ(tm.tail_ms, percentile(pristine, 50.0));
}

// ------------------------------------------------------ policy selection

TEST(PlacementConfig, SimulatorHonoursPolicySelection) {
  SimConfig config;
  config.num_servers = 8;
  config.policy = Policy::kTfEdf;
  config.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  config.service_time = std::make_shared<Exponential>(1.0);
  config.fanout = std::make_shared<FixedFanout>(2);
  config.arrival_rate = 0.5;
  config.num_queries = 500;
  config.seed = 4;

  SimConfig pow_d = config;
  pow_d.placement_policy =
      PlacementPolicyOptions{.kind = PlacementPolicyKind::kPowerOfD};
  const SimResult informed = run_simulation(pow_d);
  EXPECT_EQ(informed.placement_kind, PlacementPolicyKind::kPowerOfD);
  EXPECT_GT(informed.placement_decisions, 0u);
  EXPECT_GT(informed.placement_candidates_considered,
            informed.placement_decisions);

  const SimResult legacy = run_simulation(config);
  EXPECT_EQ(legacy.placement_kind, PlacementPolicyKind::kLeastLoaded);
  EXPECT_EQ(legacy.placement_decisions, 0u)
      << "default placement keeps the legacy sampling path";
}

TEST(PlacementConfig, ExplicitLeastLoadedIsBitIdenticalToDefault) {
  SimConfig config;
  config.num_servers = 10;
  config.policy = Policy::kTfEdf;
  config.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  config.service_time = std::make_shared<Exponential>(1.0);
  config.fanout = std::make_shared<FixedFanout>(3);
  config.arrival_rate = 1.0;
  config.num_queries = 2000;
  config.seed = 13;

  const SimResult implicit_default = run_simulation(config);
  config.placement_policy =
      PlacementPolicyOptions{.kind = PlacementPolicyKind::kLeastLoaded};
  const SimResult explicit_ll = run_simulation(config);

  ASSERT_EQ(implicit_default.class_results.size(),
            explicit_ll.class_results.size());
  EXPECT_EQ(implicit_default.class_results[0].tail_latency_ms,
            explicit_ll.class_results[0].tail_latency_ms);
  EXPECT_EQ(implicit_default.class_results[0].mean_latency_ms,
            explicit_ll.class_results[0].mean_latency_ms);
  EXPECT_EQ(implicit_default.task_deadline_miss_ratio,
            explicit_ll.task_deadline_miss_ratio);
  EXPECT_EQ(implicit_default.end_time, explicit_ll.end_time);
}

TEST(PlacementConfig, PowDSweepIsIdenticalToSerialRuns) {
  // sweep_loads fans points over the thread pool; a pow_d run must come out
  // bit-identical to the serial single-point runs at any thread count (the
  // policy draws only from the control plane's own Rng).
  SimConfig config;
  config.num_servers = 12;
  config.policy = Policy::kTfEdf;
  config.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
  config.service_time = std::make_shared<Exponential>(0.8);
  config.fanout = std::make_shared<FixedFanout>(3);
  config.num_queries = 3000;
  config.seed = 21;
  config.placement_policy = PlacementPolicyOptions{
      .kind = PlacementPolicyKind::kPowerOfD, .power_d = 3};

  const std::vector<double> loads = {0.3, 0.6};
  const auto points = sweep_loads(config, loads);
  ASSERT_EQ(points.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    SimConfig serial = config;
    set_load(serial, loads[i]);
    const SimResult reference = run_simulation(serial);
    EXPECT_EQ(points[i].result.class_results[0].tail_latency_ms,
              reference.class_results[0].tail_latency_ms);
    EXPECT_EQ(points[i].result.placement_decisions,
              reference.placement_decisions);
    EXPECT_EQ(points[i].result.placement_candidates_considered,
              reference.placement_candidates_considered);
  }
}

// -------------------------------------------------- cross-backend parity

constexpr std::uint64_t kNoRefresh = 1ull << 30;
constexpr std::size_t kParityServers = 4;
constexpr std::uint64_t kParitySeed = 42;

StreamingCdfModel::Options frozen_model_options() {
  StreamingCdfModel::Options options;
  options.histogram = {.min_value = 1e-3,
                       .max_value = 1e6,
                       .buckets_per_decade = 100,
                       .decay_every = 0,
                       .decay_factor = 0.5};
  options.refresh_every = kNoRefresh;
  return options;
}

std::uint32_t parity_fanout(std::size_t q) {
  return static_cast<std::uint32_t>(1 + q % 3);
}

TEST(PlacementParity, IdenticalPowDSequencesAcrossSimRuntimeAndNet) {
  // Queries are submitted strictly one at a time and drained before the
  // next, so every backend sees the same candidate view (all servers at
  // load 0) — the placement sequence is then a pure function of the shared
  // control-plane seed, and must be identical across the simulator, the
  // in-process runtime and the loopback remote dispatcher.
  constexpr std::size_t kQueries = 24;
  PlacementPolicyOptions pow_d;
  pow_d.kind = PlacementPolicyKind::kPowerOfD;
  pow_d.power_d = 2;

  using Sequence = std::vector<std::vector<ServerId>>;

  // --- simulator: a well-spaced trace of tiny deterministic tasks.
  Sequence sim_seq;
  {
    SimConfig config;
    config.num_servers = kParityServers;
    config.policy = Policy::kTfEdf;
    config.classes = {{.slo_ms = 80.0, .percentile = 99.0}};
    config.service_time = std::make_shared<Deterministic>(0.5);
    for (std::size_t q = 0; q < kQueries; ++q)
      config.trace.push_back({.arrival_ms = 50.0 * static_cast<double>(q),
                              .class_id = 0,
                              .fanout = parity_fanout(q)});
    config.seed = kParitySeed;
    config.placement_policy = pow_d;
    config.on_query_placed = [&](ClassId, std::span<const ServerId> servers) {
      sim_seq.emplace_back(servers.begin(), servers.end());
    };
    const SimResult result = run_simulation(config);
    EXPECT_EQ(result.placement_kind, PlacementPolicyKind::kPowerOfD);
    EXPECT_EQ(result.placement_decisions, kQueries);
  }
  ASSERT_EQ(sim_seq.size(), kQueries);

  // --- in-process runtime.
  Sequence runtime_seq;
  {
    ServiceOptions options;
    options.num_workers = kParityServers;
    options.policy = Policy::kTfEdf;
    options.classes = {{.slo_ms = 80.0, .percentile = 99.0}};
    options.model_options = frozen_model_options();
    options.seed = kParitySeed;
    options.placement = pow_d;
    options.placement_observer = [&](std::span<const ServerId> servers) {
      runtime_seq.emplace_back(servers.begin(), servers.end());
    };
    TailGuardService service(options);
    EXPECT_EQ(service.placement_kind(), PlacementPolicyKind::kPowerOfD);
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::vector<ServiceTaskSpec> tasks(parity_fanout(q));
      for (auto& t : tasks) t.simulated_service_ms = 0.5;
      service.submit(0, std::move(tasks)).get();
    }
    EXPECT_EQ(service.placement_stats().decisions, kQueries);
  }
  ASSERT_EQ(runtime_seq.size(), kQueries);

  // --- remote dispatcher over loopback TCP.
  Sequence net_seq;
  {
    std::vector<std::unique_ptr<net::TaskServer>> fleet;
    for (std::size_t i = 0; i < kParityServers; ++i) {
      net::TaskServerOptions server_options;
      server_options.policy = Policy::kTfEdf;
      server_options.num_classes = 1;
      fleet.push_back(std::make_unique<net::TaskServer>(server_options));
    }
    net::DispatcherOptions options;
    for (const auto& server : fleet)
      options.servers.push_back({"127.0.0.1", server->port()});
    options.policy = Policy::kTfEdf;
    options.classes = {{.slo_ms = 80.0, .percentile = 99.0}};
    options.model_options = frozen_model_options();
    options.seed = kParitySeed;
    options.placement = pow_d;
    options.placement_observer = [&](std::span<const ServerId> servers) {
      net_seq.emplace_back(servers.begin(), servers.end());
    };
    net::RemoteDispatcher dispatcher(options);
    ASSERT_TRUE(dispatcher.wait_for_servers(kParityServers, 5000.0));
    EXPECT_EQ(dispatcher.placement_kind(), PlacementPolicyKind::kPowerOfD);
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::vector<net::RemoteTaskSpec> tasks(parity_fanout(q));
      for (auto& t : tasks) t.simulated_service_ms = 0.5;
      const QueryResult r = dispatcher.submit(0, std::move(tasks)).get();
      EXPECT_EQ(r.tasks_failed, 0u);
    }
    EXPECT_EQ(dispatcher.placement_stats().decisions, kQueries);
  }
  ASSERT_EQ(net_seq.size(), kQueries);

  EXPECT_EQ(sim_seq, runtime_seq);
  EXPECT_EQ(sim_seq, net_seq);
}

}  // namespace
}  // namespace tailguard
