// Statistics helpers used by the metrics layer and the benchmark harnesses:
// running moments, sample quantiles and Jain's fairness index (reference [11]
// of the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace osumac {

/// Single-pass mean / variance / min / max accumulator (Welford's method).
class RunningStats {
 public:
  void Add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; answers arbitrary quantile queries.
/// Suitable for the per-run sample counts in this simulator (<= millions).
class SampleSet {
 public:
  void Add(double x) { samples_.push_back(x); sorted_ = false; }

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Quantile by linear interpolation, q in [0, 1]. Requires non-empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Max() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Jain's fairness index: (sum u_i)^2 / (n * sum u_i^2).
/// Equals 1 when all allocations are equal; 1/n in the most unfair case.
double JainFairnessIndex(std::span<const double> allocations);

}  // namespace osumac
