// What one benchmark run reports: end-to-end metrics, per-layer metrics,
// operation counts and output checks. Prints a human-readable report and,
// as the last line of stdout, the one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

class Report {
 public:
  explicit Report(std::string workload);

  /// End-to-end metric: in the JSON of an untraced run.
  void e2e(const std::string& name, double value, const std::string& unit);

  /// A named figure printed in the text report only (the paper-facing
  /// names, deterministic outputs, sample counts).
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

  /// Per-layer metric of a traced run. `count` is the number of samples or
  /// operations behind the value, `base` what it is a ratio of, `moves` the
  /// end-to-end metric it should move. `in_json` = false keeps a metric
  /// that only some workloads have in the text table.
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t count, const std::string& base,
             const std::string& moves, bool in_json = true);

  /// One attempted operation; a non-empty `failure` marks it failed.
  void attempt(const std::string& failure = "");
  void failures(std::uint64_t n, const std::string& why);

  /// An output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);

  void set_noise(const NoiseRecord& noise) { noise_ = noise; }

  /// Prints the text report, then the JSON line last.
  void finish(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  struct Layer {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t count;
    std::string base;
    std::string moves;
    bool in_json;
  };

  std::string workload_;
  std::vector<Metric> e2e_;
  std::vector<Metric> info_;
  std::vector<Layer> layers_;
  std::vector<std::string> failure_messages_;
  std::vector<std::string> check_failures_;
  std::uint64_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  NoiseRecord noise_;
};

}  // namespace perfbench
