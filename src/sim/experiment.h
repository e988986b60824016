// Experiment drivers shared by the benchmark harness: maximum-load binary
// search and load sweeps (the two x-axes of the paper's evaluation).
#pragma once

#include <vector>

#include "sim/simulator.h"

namespace tailguard {

struct MaxLoadOptions {
  double lo = 0.02;         ///< search floor (assumed feasible)
  double hi = 0.95;         ///< search ceiling
  double tolerance = 0.01;  ///< terminate when hi - lo < tolerance
  /// Relative SLO slack when judging feasibility; absorbs percentile noise
  /// at finite sample sizes.
  double slo_epsilon = 0.0;
  /// Override for the load -> arrival-rate conversion basis; 0 means
  /// rate = load * num_servers / expected_work_per_query(config).
  double work_per_query = 0.0;
  double capacity_servers = 0.0;
};

/// Sets config.arrival_rate for the given offered load, honouring the
/// overrides in `opt`.
void set_load(SimConfig& config, double load, const MaxLoadOptions& opt = {});

/// Largest load (within tolerance) at which every (class, fanout) group
/// meets its SLO, found by bisection with common random numbers across
/// evaluation points. Returns opt.lo if even the floor is infeasible.
/// Runs as a speculative parallel search over the shared thread pool (see
/// sim/parallel.h); the result is identical to the serial bisection at any
/// pool size.
double find_max_load(SimConfig config, const MaxLoadOptions& opt = {});

struct LoadPoint {
  double load = 0.0;
  SimResult result;
};

/// Runs the simulation at each load (same seed everywhere), fanned out over
/// the shared thread pool; points come back in `loads` order.
std::vector<LoadPoint> sweep_loads(SimConfig config,
                                   const std::vector<double>& loads,
                                   const MaxLoadOptions& opt = {});

/// Scales a query count by `scale`, clamped to [0.05, 100], with a floor of
/// 1000 queries; the bench harness uses it everywhere so the whole suite can
/// be sped up or made more precise by one factor.
std::size_t scaled_queries(std::size_t base, double scale);

}  // namespace tailguard
