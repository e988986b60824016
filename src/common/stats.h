// Summary statistics and percentile helpers.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace tailguard {

/// Streaming summary of a scalar sample (Welford's online algorithm).
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Merges another summary into this one (parallel Welford).
  void merge(const Summary& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Nearest-rank percentile of an *unsorted* sample (copies + selects).
/// `p` is in percent, e.g. 99.0 for p99. Returns NaN on an empty sample.
double percentile(std::span<const double> sample, double p);

/// Nearest-rank percentile via in-place partial selection (nth_element):
/// no copy, no full sort. *Reorders* `sample` — but never changes its
/// multiset of values, so successive calls (p50, then p95, then p99) on the
/// same buffer all return exactly what a sort-then-index would. Callers
/// needing the mean must take it BEFORE this call: floating-point summation
/// is order-sensitive, and the means this repo reports are pinned to
/// insertion order (see stats_test).
double percentile_inplace(std::span<double> sample, double p);

/// Arithmetic mean; NaN on an empty sample.
double mean_of(std::span<const double> sample);

}  // namespace tailguard
