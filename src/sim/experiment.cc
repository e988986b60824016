#include "sim/experiment.h"

#include <algorithm>

#include "common/check.h"
#include "sim/parallel.h"

namespace tailguard {

void set_load(SimConfig& config, double load, const MaxLoadOptions& opt) {
  TG_CHECK_MSG(load > 0.0 && load < 1.0, "load must be in (0,1): " << load);
  const double capacity = opt.capacity_servers > 0.0
                              ? opt.capacity_servers
                              : static_cast<double>(config.num_servers);
  const double work = opt.work_per_query > 0.0
                          ? opt.work_per_query
                          : expected_work_per_query(config);
  config.arrival_rate = load * capacity / work;
}

double find_max_load(SimConfig config, const MaxLoadOptions& opt) {
  // Speculative bisection over the shared pool; replaying the serial
  // search's branch decisions keeps the returned load bit-identical to the
  // sequential implementation at any thread count.
  return find_max_load_speculative(config, opt);
}

std::vector<LoadPoint> sweep_loads(SimConfig config,
                                   const std::vector<double>& loads,
                                   const MaxLoadOptions& opt) {
  return sweep_loads_parallel(config, loads, opt);
}

std::size_t scaled_queries(std::size_t base, double scale) {
  scale = std::clamp(scale, 0.05, 100.0);
  const auto scaled =
      static_cast<std::size_t>(static_cast<double>(base) * scale);
  return std::max<std::size_t>(scaled, 1000);
}

}  // namespace tailguard
