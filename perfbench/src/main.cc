// TailGuard benchmark binary.
//
//   tg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: sim-paper, sim-fleet, serve-inproc, serve-loopback. Prints a
// text report, then one JSON line: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probe.h"
#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") args.trace = std::string(value) == "1";
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  void (*run)(const RunArgs&, Report&) = nullptr;
  if (workload == "sim-paper") run = run_sim_paper;
  else if (workload == "sim-fleet") run = run_sim_fleet;
  else if (workload == "serve-inproc") run = run_serve_inproc;
  else if (workload == "serve-loopback") run = run_serve_loopback;
  if (run == nullptr || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload sim-paper|sim-fleet|serve-inproc|"
                 "serve-loopback --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }

  install_alloc_probe();
  Report report(workload);
  const HostSample host0 = host_sample();
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  report.set_noise(noise_between(host0, host_sample()));
  report.e2e("peak_rss_mb", usage().max_rss_mb, "MB");
  report.finish(args.trace);
  return 0;
}
