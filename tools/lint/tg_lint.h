// tg_lint: in-repo static checker for TailGuard-specific invariants that
// generic tools (clang-tidy, cppcheck) cannot express.
//
// The rules, and why they exist:
//
//   determinism-random  No std::random_device / rand() / std:: engines
//                       outside src/common/rng.h. Every stochastic draw in a
//                       simulation path must come from a seeded
//                       tailguard::Rng, or BENCH_*.json rows stop being
//                       reproducible and the parallel engine's bit-identical
//                       replay contract (DESIGN.md) silently breaks.
//   determinism-clock   No wall/monotonic clock reads (system_clock,
//                       steady_clock, gettimeofday, ...) outside the
//                       real-time layers (src/net/, src/runtime/, bench/,
//                       their tests). Simulated time is the only clock the
//                       deterministic core may observe.
//   time-units          Every duration-valued identifier must carry a unit
//                       suffix (_s/_ms/_us/_ns) or be expressed in
//                       std::chrono types. Catches Eq. 6 budget-vs-deadline
//                       unit mixups of the seconds-vs-milliseconds kind.
//   lock-discipline     No naked .lock()/.unlock()/.try_lock() calls; scoped
//                       RAII guards (lock_guard/unique_lock/scoped_lock)
//                       only, so no early return can leak a held mutex.
//   header-hygiene      Headers start with #pragma once and never contain
//                       `using namespace`.
//   wire-safety         In src/net/, all wire data goes through wire.cc's
//                       little-endian helpers: no reinterpret_cast struct
//                       punning, no memcpy of raw integers (sockaddr casts
//                       for the POSIX API are exempt).
//   hot-path-map        No std::unordered_map / std::map in src/sim or
//                       src/core. The event loop and per-query control-plane
//                       path budget tens of nanoseconds per operation;
//                       node-based maps allocate and pointer-chase per entry.
//                       Dense-id state uses SlabMap, memo caches use
//                       SlabHashCache (common/slab_map.h); genuinely cold
//                       uses carry an explicit allow(hot-path-map).
//   env-read            No getenv / secure_getenv under src/. A library
//                       whose behaviour silently follows the process
//                       environment cannot be configured or tested through
//                       its API; settings are options, and only the entry
//                       points (tools/, bench/, perfbench/) read the
//                       environment. The rule has no allowed exceptions:
//                       nothing under src/ carries an allow(env-read).
//   atomic-order        Every atomic access in src/ and tools/ (.load(),
//                       .store(), .exchange(), .fetch_*(),
//                       .compare_exchange_*(), .test_and_set()) passes an
//                       explicit std::memory_order. The implicit seq_cst
//                       default is both the strongest fence and the easiest
//                       to write, so it says nothing about what the code
//                       actually needs; forcing the argument forces the
//                       author to name (and ideally justify in a comment)
//                       the weakest correct order.
//   guarded-member      In the concurrent directories (src/runtime, src/net,
//                       src/common, src/shard) a class that owns a Mutex
//                       must say which members that mutex protects: every
//                       mutable non-atomic data member carries
//                       TG_GUARDED_BY(<mutex>) (common/thread_annotations.h,
//                       enforced by Clang TSA when available) or an explicit
//                       allow(guarded-member) with a why-comment. The lint
//                       form runs under GCC too, so the discipline holds on
//                       compilers with no thread-safety analysis.
//
// Suppression: append `// tg-lint: allow(<rule>[, <rule>...])` to the
// offending line, or place it on the line directly above. `allow(all)`
// suppresses every rule for that line. Suppressions are deliberate and
// reviewable — grep for "tg-lint:" to audit them.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tailguard::lint {

/// One rule violation at a source location.
struct Diagnostic {
  std::string path;     ///< repo-relative path, '/' separators
  int line = 0;         ///< 1-based
  std::string rule;     ///< rule name, e.g. "time-units"
  std::string message;  ///< human-readable explanation

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// Lints one file's contents. `rel_path` is the repo-relative path with '/'
/// separators; several rules key their allowlists off it (e.g. wire-safety
/// only applies under src/net/). The file need not exist on disk, which is
/// what makes the checker testable against string fixtures.
std::vector<Diagnostic> lint_source(const std::string& rel_path,
                                    std::string_view content);

/// Walks `paths` (files or directories, repo-relative, resolved against
/// `root`), lints every *.h / *.cc found, and returns all diagnostics sorted
/// by path then line. I/O failures are reported via `error` (empty on
/// success). `num_files`, if non-null, receives the number of files scanned.
std::vector<Diagnostic> lint_paths(const std::string& root,
                                   const std::vector<std::string>& paths,
                                   std::string* error,
                                   std::size_t* num_files = nullptr);

/// One-line-per-rule table for --list-rules.
std::string rule_summary();

}  // namespace tailguard::lint
