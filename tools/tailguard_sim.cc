// tailguard_sim — command-line driver for the TailGuard cluster simulator.
//
// Examples:
//   # p99 per query type for every policy at 40% load
//   tailguard_sim --workload masstree --slos 1.0,1.5 --load 0.4
//
//   # maximum load meeting the SLOs, TailGuard only, CSV output
//   tailguard_sim --policies tailguard --slos 1.0 --find-max-load --format csv
//
//   # OLDI: every query fans out to all servers, Pareto arrivals
//   tailguard_sim --fixed-fanout 100 --slos 1.0,1.5 --pareto --load 0.5
//
// TAILGUARD_THREADS sizes the pool that runs load sweeps and max-load
// searches (default: one thread per hardware thread).
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "sas/testbed.h"
#include "sim/experiment.h"
#include "tool_util.h"
#include "workloads/tailbench.h"

using namespace tailguard;

int main(int argc, char** argv) {
  std::string workload = "masstree";
  std::string policies_flag = "all";
  std::string format = "table";
  std::string estimation = "exact";
  std::size_t servers = 100;
  std::size_t queries = 100000;
  double load = 0.4;
  std::vector<double> loads;
  std::vector<double> slos = {1.0};
  std::vector<double> class_probs;
  double percentile_pct = 99.0;
  std::int64_t fixed_fanout = 0;
  bool pareto = false;
  bool find_max = false;
  bool sas = false;
  std::int64_t seed = 1;
  double admission_rth = 0.0;

  FlagParser parser(
      "tailguard_sim — discrete-event simulation of TF-EDFQ task scheduling "
      "(TailGuard, ICDCS 2023) against FIFO/PRIQ/T-EDFQ baselines");
  parser.add_string("workload", &workload,
                    "service-time model: masstree | shore | xapian");
  parser.add_string("policies", &policies_flag,
                    "comma list of fifo,priq,tedf,tailguard or 'all'");
  parser.add_size("servers", &servers, "number of task servers");
  parser.add_size("queries", &queries, "queries to simulate per run");
  parser.add_double("load", &load, "offered load in (0,1)");
  parser.add_double_list("loads", &loads,
                         "sweep these loads instead of --load");
  parser.add_double_list("slos", &slos,
                         "per-class tail latency SLOs in ms (one class each)");
  parser.add_double_list("class-probs", &class_probs,
                         "class mix (defaults to uniform)");
  parser.add_double("percentile", &percentile_pct,
                    "SLO percentile, e.g. 99 or 95");
  parser.add_int("fixed-fanout", &fixed_fanout,
                 "use this fanout for every query (0 = paper mix 1/10/100)");
  parser.add_bool("pareto", &pareto, "Pareto arrivals instead of Poisson");
  parser.add_bool("find-max-load", &find_max,
                  "binary-search the max load meeting all SLOs");
  parser.add_string("estimation", &estimation,
                    "CDF source: exact | offline | single | online");
  parser.add_double("admission-rth", &admission_rth,
                    "enable admission control with this miss-ratio "
                    "threshold (0 = off)");
  parser.add_bool("sas", &sas,
                  "simulate the paper's SaS edge testbed instead (ignores "
                  "workload/servers/slos/fanout flags; load = Server-room "
                  "cluster load)");
  parser.add_string("format", &format, "output format: table | csv");
  parser.add_int("seed", &seed, "random seed");
  if (!parser.parse(argc, argv, std::cout, std::cerr))
    return parser.help_requested() ? 0 : 1;
  if (const std::size_t threads =
          ThreadPool::parse_thread_count(std::getenv("TAILGUARD_THREADS"));
      threads > 0)
    ThreadPool::shared(threads);

  const auto policies = tools::parse_policies(policies_flag);
  if (policies.empty()) {
    std::cerr << "bad --policies value: " << policies_flag << "\n";
    return 1;
  }

  SimConfig cfg;
  MaxLoadOptions opt;
  opt.tolerance = 0.01;

  if (sas) {
    cfg = make_sas_config(Policy::kTfEdf, static_cast<std::uint64_t>(seed),
                          queries);
    const MaxLoadOptions sas_opt = sas_load_options();
    opt.work_per_query = sas_opt.work_per_query;
    opt.capacity_servers = sas_opt.capacity_servers;
  } else {
    const auto app = tools::parse_workload(workload);
    if (!app) {
      std::cerr << "unknown workload: " << workload << "\n";
      return 1;
    }
    cfg.num_servers = servers;
    cfg.service_time = make_service_time_model(*app);
    cfg.num_queries = queries;
    cfg.seed = static_cast<std::uint64_t>(seed);
    for (double slo : slos)
      cfg.classes.push_back({.slo_ms = slo, .percentile = percentile_pct});
    if (!class_probs.empty()) {
      if (class_probs.size() != slos.size()) {
        std::cerr << "--class-probs must have one entry per SLO\n";
        return 1;
      }
      cfg.class_probabilities = class_probs;
    } else if (slos.size() > 1) {
      cfg.class_probabilities.assign(slos.size(), 1.0 / slos.size());
    }
    if (fixed_fanout > 0) {
      cfg.fanout = std::make_shared<FixedFanout>(
          static_cast<std::uint32_t>(fixed_fanout));
    } else {
      cfg.fanout =
          std::make_shared<CategoricalFanout>(CategoricalFanout::paper_mix());
    }
  }
  cfg.arrival_kind = pareto ? ArrivalKind::kPareto : ArrivalKind::kPoisson;
  if (estimation == "offline") {
    cfg.estimation = EstimationMode::kOfflineEmpirical;
  } else if (estimation == "single") {
    cfg.estimation = EstimationMode::kOfflineSingleProfile;
  } else if (estimation == "online") {
    cfg.estimation = EstimationMode::kOnlineFromSingleProfile;
  } else if (estimation != "exact") {
    std::cerr << "unknown --estimation: " << estimation << "\n";
    return 1;
  }

  const bool csv = format == "csv";

  if (find_max) {
    if (csv) std::printf("policy,max_load\n");
    for (Policy policy : policies) {
      cfg.policy = policy;
      const double max_load = find_max_load(cfg, opt);
      if (csv) {
        std::printf("%s,%.4f\n", to_string(policy), max_load);
      } else {
        std::printf("%-10s max load %5.1f%%\n", to_string(policy),
                    max_load * 100.0);
      }
    }
    return 0;
  }

  if (loads.empty()) loads.push_back(load);
  if (csv)
    std::printf("policy,load,class,fanout,queries,p%.0f_ms,mean_ms,slo_ms,met\n",
                percentile_pct);
  for (Policy policy : policies) {
    cfg.policy = policy;
    for (double l : loads) {
      set_load(cfg, l, opt);
      if (admission_rth > 0.0) {
        cfg.admission =
            AdmissionOptions{.window_tasks = 100000,
                             .window_ms = 100.0 / cfg.arrival_rate,
                             .miss_ratio_threshold = admission_rth};
      }
      const SimResult r = run_simulation(cfg);
      if (!csv) {
        std::printf("%s @ %.0f%% load (util %.2f, miss %.3f%%, rejected %lu):\n",
                    to_string(policy), l * 100.0, r.measured_utilization,
                    100.0 * r.task_deadline_miss_ratio,
                    static_cast<unsigned long>(r.queries_rejected));
      }
      for (const auto& g : r.groups) {
        if (csv) {
          std::printf("%s,%.3f,%u,%u,%lu,%.4f,%.4f,%.3f,%d\n",
                      to_string(policy), l, g.cls, g.fanout,
                      static_cast<unsigned long>(g.queries), g.tail_latency_ms,
                      g.mean_latency_ms, g.slo, g.met ? 1 : 0);
        } else {
          std::printf(
              "  class %u kf %-5u %8lu queries   p%.0f %8.3f ms   (SLO %.3f "
              "ms) %s\n",
              g.cls, g.fanout, static_cast<unsigned long>(g.queries),
              percentile_pct, g.tail_latency_ms, g.slo, g.met ? "ok" : "MISS");
        }
      }
    }
  }
  return 0;
}
