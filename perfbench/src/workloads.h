// The benchmark's workloads. Each runs for about `seconds` of measurement,
// fills `report` with its end-to-end metrics (and, when traced, its
// per-layer metrics) and records every attempted operation and check.
#pragma once

#include <cstdint>

#include "report.h"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void run_sim_paper(const RunArgs& args, Report& report);
void run_sim_fleet(const RunArgs& args, Report& report);
void run_serve_inproc(const RunArgs& args, Report& report);
void run_serve_loopback(const RunArgs& args, Report& report);

}  // namespace perfbench
