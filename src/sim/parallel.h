// Parallel experiment engine.
//
// Every point of the paper's evaluation — a (workload, SLO, policy, load,
// seed) tuple — is one independent run_simulation() call, so the whole
// harness is embarrassingly parallel. This layer fans those calls out over
// the shared ThreadPool while keeping the *determinism contract*: a
// simulation's result is a pure function of its SimConfig, results are
// returned in submission order, and the speculative max-load search replays
// the serial bisection's decisions from results keyed by load — so the same
// seeds produce bit-identical metrics and max loads at any thread count
// (a 1-thread and a 64-thread pool agree).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace tailguard {

/// Runs every config through run_simulation() on `pool` (nullptr = shared
/// pool); results are indexed like `configs`.
std::vector<SimResult> run_simulations(std::span<const SimConfig> configs,
                                       ThreadPool* pool = nullptr);

/// Feasibility judgement for a max-load search; empty means the default
/// SimResult::all_slos_met(opt.slo_epsilon). Must be a pure function of the
/// result (it is called from pool threads).
using FeasiblePredicate = std::function<bool(const SimResult&)>;

/// One max-load search: the base config plus its search options.
struct MaxLoadJob {
  SimConfig config;
  MaxLoadOptions opt;
  FeasiblePredicate feasible;  ///< empty = all_slos_met(opt.slo_epsilon)
};

/// Speculative bisection for the maximum SLO-feasible load. Each round
/// evaluates the next `2^levels - 1` candidate midpoints of the bisection
/// tree concurrently, then replays the serial bisection's branch decisions
/// against the completed results — descending `levels` levels per round
/// instead of one, with a bit-identical final bracket. `levels == 0` picks a
/// depth from the pool size; `levels == 1` is the serial search (one
/// midpoint per round).
double find_max_load_speculative(const SimConfig& config,
                                 const MaxLoadOptions& opt = {},
                                 int levels = 0, ThreadPool* pool = nullptr,
                                 const FeasiblePredicate& feasible = {});

/// Runs a batch of max-load searches concurrently (each itself speculative);
/// results are indexed like `jobs`.
std::vector<double> find_max_loads(std::span<const MaxLoadJob> jobs,
                                   ThreadPool* pool = nullptr);

/// sweep_loads() over the pool: one simulation per load, all concurrent.
std::vector<LoadPoint> sweep_loads_parallel(const SimConfig& config,
                                            std::span<const double> loads,
                                            const MaxLoadOptions& opt = {},
                                            ThreadPool* pool = nullptr);

}  // namespace tailguard
