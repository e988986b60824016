// Wall-clock speedup of the parallel experiment engine vs thread count, on
// a Fig. 4-style single-class max-load search (the harness's dominant
// workload shape). The reported max loads must be identical at every
// thread count — the engine's determinism contract — so the only thing
// that changes with TAILGUARD_THREADS is how long the search takes.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "sim/parallel.h"
#include "workloads/tailbench.h"

using namespace tailguard;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  tailguard::bench::init(argc, argv);
  bench::title("Parallel speedup",
               "fig4-style max-load search wall clock vs thread count");
  bench::JsonReport report("parallel_speedup");

  SimConfig cfg;
  cfg.num_servers = 100;
  cfg.fanout =
      std::make_shared<CategoricalFanout>(CategoricalFanout::paper_mix());
  cfg.service_time = make_service_time_model(TailbenchApp::kMasstree);
  cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0}};
  cfg.num_queries = bench::queries(60000);
  cfg.seed = 7;

  MaxLoadOptions opt;
  opt.tolerance = 0.01;

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t configured = ThreadPool::shared().num_threads();
  if (configured > thread_counts.back()) thread_counts.push_back(configured);

  std::printf("%-10s %12s %12s %12s %12s\n", "threads", "wall (ms)",
              "speedup", "FIFO max", "TailGd max");

  double base_ms = 0.0;
  double ref_fifo = -1.0, ref_tailguard = -1.0;
  bool identical = true;
  for (std::size_t threads : thread_counts) {
    ThreadPool pool(threads);
    const double t0 = now_ms();
    cfg.policy = Policy::kFifo;
    const double fifo = find_max_load_speculative(cfg, opt, 0, &pool);
    cfg.policy = Policy::kTfEdf;
    const double tailguard = find_max_load_speculative(cfg, opt, 0, &pool);
    const double wall = now_ms() - t0;

    if (ref_fifo < 0.0) {
      base_ms = wall;
      ref_fifo = fifo;
      ref_tailguard = tailguard;
    } else if (fifo != ref_fifo || tailguard != ref_tailguard) {
      identical = false;
    }
    const double speedup = wall > 0.0 ? base_ms / wall : 0.0;
    std::printf("%-10zu %12.0f %11.2fx %11.1f%% %11.1f%%\n", threads, wall,
                speedup, fifo * 100.0, tailguard * 100.0);
    report.row()
        .add("threads", static_cast<double>(threads))
        .add("wall_ms", wall)
        .add("speedup_vs_1", speedup)
        .add("max_load_fifo", fifo)
        .add("max_load_tailguard", tailguard);
  }

  std::printf("\nmax loads identical across thread counts: %s\n",
              bench::check_mark(identical));
  report.row().add("identical_across_threads", identical);
  if (!identical) {
    std::fprintf(stderr,
                 "determinism violation: max loads differ across thread "
                 "counts\n");
    return 1;
  }

  bench::note(
      "expected shape: near-linear scaling up to the speculative search's "
      "parallelism (2^levels - 1 concurrent probes per round plus the "
      "FIFO/TailGuard searches overlapping nothing here); on a 1-core "
      "machine all rows take the same time, by design");
  return 0;
}
