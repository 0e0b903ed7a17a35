#include "common/stats.h"

#include <algorithm>
#include "common/check.h"
#include <cmath>

namespace osumac {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::Quantile(double q) const {
  OSUMAC_CHECK(!samples_.empty());
  OSUMAC_CHECK(q >= 0.0 && q <= 1.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::Mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::Max() const {
  OSUMAC_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double JainFairnessIndex(std::span<const double> allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double u : allocations) {
    sum += u;
    sum_sq += u * u;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero allocations are (vacuously) fair
  return (sum * sum) / (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace osumac
