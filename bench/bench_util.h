// Shared helpers for the table/figure reproduction harness.
//
// Every bench binary prints: the experiment id, the paper's setup, the
// regenerated rows/series, and (where the paper publishes numbers) the
// paper's values alongside. Two environment variables tune every bench:
// TAILGUARD_BENCH_SCALE scales simulated query counts (e.g. 0.2 for a fast
// smoke run, 4 for tighter percentiles), and TAILGUARD_THREADS sizes the
// shared experiment pool (default: one thread per hardware thread). The
// library reads neither; this header passes them in.
//
// Besides the stdout report, each bench writes BENCH_<name>.json (see
// JsonReport below, format documented in EXPERIMENTS.md) so the perf and
// result trajectory is machine-trackable across commits. The JSON lands in
// the working directory by default; `--out=DIR` (via bench::init) or the
// TAILGUARD_BENCH_OUT environment variable redirects every report into DIR
// (created on demand) — so CI can collect all artifacts from one place
// without cd-ing around.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "sim/experiment.h"

namespace tailguard::bench {

namespace detail {
/// --out override from bench::init; empty = fall back to the environment.
inline std::string& out_dir_override() {
  static std::string dir;
  return dir;
}
}  // namespace detail

/// Directory JSON reports are written into: the --out flag if given, else
/// $TAILGUARD_BENCH_OUT, else empty (working directory).
inline std::string out_dir() {
  if (!detail::out_dir_override().empty()) return detail::out_dir_override();
  const char* env = std::getenv("TAILGUARD_BENCH_OUT");
  return env != nullptr ? std::string(env) : std::string();
}

/// Parses the shared bench flags (currently just `--out=DIR` / `--out DIR`)
/// and sizes the shared pool from TAILGUARD_THREADS. Call first thing in
/// main(); unknown arguments are ignored so benches can layer their own
/// flags on top.
inline void init(int argc, char** argv) {
  if (const std::size_t threads =
          ThreadPool::parse_thread_count(std::getenv("TAILGUARD_THREADS"));
      threads > 0)
    ThreadPool::shared(threads);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out=", 0) == 0)
      detail::out_dir_override() = std::string(arg.substr(6));
    else if (arg == "--out" && i + 1 < argc)
      detail::out_dir_override() = argv[++i];
  }
}

inline void title(const char* experiment, const char* what) {
  std::printf("\n");
  std::printf("================================================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("================================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

inline void note(const char* text) { std::printf("note: %s\n", text); }

/// Scaled query count: `base` times TAILGUARD_BENCH_SCALE (default 1.0;
/// unparsable or non-positive values count as unset).
inline std::size_t queries(std::size_t base) {
  double scale = 1.0;
  if (const char* env = std::getenv("TAILGUARD_BENCH_SCALE")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed > 0.0) scale = parsed;
  }
  return scaled_queries(base, scale);
}

inline const char* check_mark(bool met) { return met ? "yes" : "NO"; }

/// Machine-readable companion to the stdout report: collects flat key/value
/// rows and writes `BENCH_<name>.json` into the working directory on
/// destruction, including the bench's wall-clock milliseconds. Format:
///   {"bench": "<name>", "wall_ms": <double>, "rows": [{...}, ...]}
class JsonReport {
 public:
  class Row {
   public:
    Row& add(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", value);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& add(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, quote(value));
      return *this;
    }
    Row& add(const std::string& key, const char* value) {
      return add(key, std::string(value));
    }
    Row& add(const std::string& key, bool value) {
      fields_.emplace_back(key, value ? "true" : "false");
      return *this;
    }

   private:
    friend class JsonReport;
    static std::string quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
        out.push_back(c);
      }
      out.push_back('"');
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;  // key -> encoded
  };

  explicit JsonReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  /// Starts (and returns) a new result row.
  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  double wall_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  void write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const std::string dir = out_dir(); !dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);  // best-effort, like fopen
      path = dir + "/" + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;  // e.g. read-only CWD; the stdout report stands
    std::fprintf(f, "{\"bench\": %s, \"wall_ms\": %.3f, \"rows\": [",
                 Row::quote(name_).c_str(), wall_ms());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (std::size_t i = 0; i < fields.size(); ++i)
        std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                     Row::quote(fields[i].first).c_str(),
                     fields[i].second.c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Row> rows_;
};

}  // namespace tailguard::bench
