// Empirical cumulative distribution function built from a finite sample.
//
// Used for the paper's *offline estimation process* (§III.B.2): collect task
// post-queuing-time samples from a profiling run, build F(t), and use it to
// seed every task server's CDF model.
#pragma once

#include <span>
#include <vector>

namespace tailguard {

class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Builds from an unsorted sample; the sample is copied and sorted.
  explicit EmpiricalCdf(std::span<const double> sample);

  bool empty() const { return sorted_.empty(); }
  std::size_t size() const { return sorted_.size(); }

  /// F(x): fraction of the sample <= x. 0 for x below the minimum,
  /// linearly interpolated between adjacent order statistics.
  double cdf(double x) const;

  /// Quantile (inverse CDF) with linear interpolation between order
  /// statistics (Hyndman–Fan type 7). `p` in [0, 1].
  double quantile(double p) const;

  double min() const;
  double max() const;
  double mean() const { return mean_; }

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

}  // namespace tailguard
