#include "report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

// Every digit the double carries: runs are compared on raw measurements.
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Report::Report(std::string workload) : workload_(std::move(workload)) {}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, value, unit, ""});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  info_.push_back({name, value, unit, note});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, std::uint64_t count,
                   const std::string& base, const std::string& moves,
                   bool in_json) {
  layers_.push_back({name, value, unit, count, base, moves, in_json});
}

void Report::attempt(const std::string& failure) {
  ++attempted_;
  if (!failure.empty()) failures(1, failure);
}

void Report::failures(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  // Keep the distinct messages only: an abort that repeats every attempt
  // is one defect.
  for (const auto& m : failure_messages_)
    if (m == why) return;
  failure_messages_.push_back(why);
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) check_failures_.push_back(what);
}

void Report::finish(bool traced) const {
  std::printf("\n== %s: %s run ==\n", workload_.c_str(),
              traced ? "traced (per-layer)" : "untraced (end-to-end)");
  std::printf("host: nproc=%u loadavg_1m=%.2f steal=%.4f iowait=%.4f "
              "(shares of all CPU time during the run)\n",
              noise_.nproc, noise_.loadavg_1m, noise_.steal_share,
              noise_.iowait_share);
  std::printf("operations: attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              attempted_, failed_);
  for (const auto& m : failure_messages_)
    std::printf("  FAILED: %s\n", m.c_str());
  std::printf("checks: %" PRIu64 " run, %zu failed\n", checks_,
              check_failures_.size());
  for (const auto& c : check_failures_)
    std::printf("  CHECK FAILED: %s\n", c.c_str());

  std::printf("\nend-to-end metrics%s:\n",
              traced ? " (this traced run; gated values come from untraced "
                       "runs)"
                     : "");
  for (const auto& m : e2e_)
    std::printf("  %-26s %16.6g %-8s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (!info_.empty()) std::printf("\nreported figures:\n");
  for (const auto& m : info_) {
    if (m.unit.empty())  // a label, not a number
      std::printf("  %-26s %s\n", m.name.c_str(), m.note.c_str());
    else
      std::printf("  %-26s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
  }
  if (traced) {
    std::printf("\nper-layer metrics:\n  %-30s %14s %-6s %10s  %-28s %s\n",
                "metric", "value", "unit", "count", "base", "should move");
    for (const auto& l : layers_)
      std::printf("  %-30s %14.6g %-6s %10" PRIu64 "  %-28s %s%s\n",
                  l.name.c_str(), l.value, l.unit.c_str(), l.count,
                  l.base.c_str(), l.moves.c_str(),
                  l.in_json ? "" : "  [text only]");
  }

  bool correct = check_failures_.empty();
  std::string metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    if (!std::isfinite(value)) {
      std::printf("  CHECK FAILED: metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  if (traced) {
    for (const auto& l : layers_)
      if (l.in_json) add(l.name, l.value, l.unit);
  } else {
    for (const auto& m : e2e_) add(m.name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted_, failed_,
              metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
