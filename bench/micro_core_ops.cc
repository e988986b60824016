// Microbenchmarks backing the paper's "TailGuard is lightweight" claim
// (§III.B.2): task-queue operations for all four policies, deadline
// estimation (cached and uncached, homogeneous and heterogeneous), and the
// online-update path.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/admission.h"
#include "core/deadline.h"
#include "core/order_stats.h"
#include "core/policy.h"
#include "dist/standard.h"
#include "workloads/tailbench.h"

namespace tailguard {
namespace {

// ------------------------------------------------------- queue push+pop

void BM_QueuePushPop(benchmark::State& state, Policy policy) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto queue = make_task_queue(policy, 4);
  Rng rng(42);
  // Pre-fill to the target depth.
  std::vector<QueuedTask> seed(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    seed[i].task = i;
    seed[i].cls = static_cast<ClassId>(rng.uniform_index(4));
    seed[i].deadline = rng.uniform(0.0, 1000.0);
    queue->push(seed[i]);
  }
  QueuedTask t;
  t.cls = 1;
  for (auto _ : state) {
    t.deadline = rng.uniform(0.0, 1000.0);
    queue->push(t);
    benchmark::DoNotOptimize(queue->pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_QueuePushPop, fifo, Policy::kFifo)->Arg(100)->Arg(10000);
BENCHMARK_CAPTURE(BM_QueuePushPop, priq, Policy::kPriq)->Arg(100)->Arg(10000);
BENCHMARK_CAPTURE(BM_QueuePushPop, tf_edf, Policy::kTfEdf)
    ->Arg(100)
    ->Arg(10000);

// ------------------------------------------------------ EDF depth sweep
//
// Steady-state push+pop on the EDF heap, swept across queue depth
// (1e2..1e6) and deadline distribution:
//   * uniform    — deadlines spread over 1000 ms,
//   * clustered  — deadlines pile up around a few class SLOs (the realistic
//                  TailGuard shape: every class maps arrivals to t0 + SLO),
//   * same_bucket — every deadline inside one 0.2 ms window.
// results/BENCH_micro_core_ops.json also holds the timer-wheel rows that
// DESIGN.md §8.1 cites for deleting the wheel.

enum class DeadlinePattern { kUniform, kClustered, kSameBucket };

double draw_deadline(Rng& rng, DeadlinePattern pattern) {
  switch (pattern) {
    case DeadlinePattern::kUniform:
      return rng.uniform(0.0, 1000.0);
    case DeadlinePattern::kClustered: {
      static constexpr double kSlos[] = {10.0, 50.0, 200.0};
      return kSlos[rng.uniform_index(3)] + rng.uniform(0.0, 2.0);
    }
    case DeadlinePattern::kSameBucket:
      return 500.0 + rng.uniform(0.0, 0.2);
  }
  return 0.0;
}

void BM_EdfQueueSweep(benchmark::State& state, DeadlinePattern pattern) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto queue = make_task_queue(Policy::kTfEdf);
  Rng rng(42);
  std::vector<QueuedTask> seed(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    seed[i].task = i;
    seed[i].deadline = draw_deadline(rng, pattern);
    queue->push(seed[i]);
  }
  QueuedTask t;
  for (auto _ : state) {
    t.deadline = draw_deadline(rng, pattern);
    queue->push(t);
    benchmark::DoNotOptimize(queue->pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

#define TG_EDF_SWEEP(name, pattern)                  \
  BENCHMARK_CAPTURE(BM_EdfQueueSweep, name, pattern) \
      ->RangeMultiplier(10)                          \
      ->Range(100, 1000000)

TG_EDF_SWEEP(heap_uniform, DeadlinePattern::kUniform);
TG_EDF_SWEEP(heap_clustered, DeadlinePattern::kClustered);
TG_EDF_SWEEP(heap_same_bucket, DeadlinePattern::kSameBucket);

#undef TG_EDF_SWEEP

// --------------------------------------------------- deadline estimation

void BM_DeadlineCached(benchmark::State& state) {
  auto model = std::make_shared<DistributionCdfModel>(
      make_service_time_model(TailbenchApp::kMasstree));
  auto est = DeadlineEstimator::homogeneous(model, 100);
  const ClassId cls = est.add_class({.slo_ms = 1.0, .percentile = 99.0});
  std::vector<ServerId> servers(100);
  for (ServerId s = 0; s < 100; ++s) servers[s] = s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.deadline(1.0, cls, servers));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeadlineCached);

void BM_HomogeneousQuantileUncached(benchmark::State& state) {
  DistributionCdfModel model(
      make_service_time_model(TailbenchApp::kMasstree));
  const auto kf = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(homogeneous_unloaded_quantile(model, kf, 0.99));
  }
}
BENCHMARK(BM_HomogeneousQuantileUncached)->Arg(1)->Arg(100)->Arg(10000);

void BM_HeterogeneousQuantileUncached(benchmark::State& state) {
  DistributionCdfModel a(std::make_shared<Exponential>(1.0));
  DistributionCdfModel b(std::make_shared<Exponential>(5.0));
  DistributionCdfModel c(std::make_shared<Exponential>(0.2));
  const CdfModel* models[] = {&a, &b, &c};
  const std::uint32_t counts[] = {8, 8, 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        heterogeneous_unloaded_quantile(models, counts, 0.99));
  }
}
BENCHMARK(BM_HeterogeneousQuantileUncached);

// ---------------------------------------------------------- online update

void BM_StreamingObserve(benchmark::State& state) {
  StreamingCdfModel model;
  Rng rng(7);
  for (auto _ : state) {
    model.observe(rng.uniform(0.1, 10.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamingObserve);

void BM_AdmissionRecordAndCheck(benchmark::State& state) {
  AdmissionController ctl({.window_tasks = 100000,
                           .window_ms = 1000.0,
                           .miss_ratio_threshold = 0.017});
  Rng rng(7);
  TimeMs now = 0.0;
  for (auto _ : state) {
    now += 0.01;
    ctl.record_task_dequeue(now, rng.bernoulli(0.02));
    benchmark::DoNotOptimize(ctl.should_admit(now, rng.uniform()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdmissionRecordAndCheck);

}  // namespace
}  // namespace tailguard

BENCHMARK_MAIN();
