#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace tailguard {

void Summary::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Summary::merge(const Summary& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile_inplace(std::span<double> sample, double p) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  TG_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile out of range: " << p);
  // nth_element instead of a full sort: the nearest-rank percentile is a
  // single order statistic, so selection returns the identical value in
  // O(n). Selection only permutes, so stacking several percentile calls on
  // one buffer stays exact.
  if (p <= 0.0) return *std::min_element(sample.begin(), sample.end());
  const auto n = sample.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  std::nth_element(sample.begin(), sample.begin() + (rank - 1), sample.end());
  return sample[rank - 1];
}

double percentile(std::span<const double> sample, double p) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values(sample.begin(), sample.end());
  return percentile_inplace(values, p);
}

double mean_of(std::span<const double> sample) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

}  // namespace tailguard
