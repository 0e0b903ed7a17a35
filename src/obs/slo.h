// Online QoS/SLO monitoring against the paper's real-time budgets.
//
// OSU-MAC promises deterministic temporal QoS: an active GPS user gets one
// report opportunity per notification cycle (so access delay and the gap
// between successive delivered reports must stay under the 4 s GPS window,
// paper §3.1/§4), and an inactive user learns of waiting traffic within the
// 1-minute checking delay (paper §3.2, `inactive_listen_period_cycles`).
// SloMonitor watches those quantities as streaming per-class distributions:
// fixed-bucket log-spaced histograms (no sample retention, O(1) memory),
// online quantiles, and miss / near-miss counters against each class's
// budget.  Feeding is direct (plain method calls from the MAC layer, never
// via the event trace) and consumes no randomness, so instrumented sweeps
// stay bit-identical at any --jobs value.
//
// Note the designed-in tension the near-miss counter surfaces: the nominal
// notification cycle is 3.984375 s = 99.6 % of the 4 s budget, and the
// nominal paging period (15 cycles) is 59.77 s = 99.6 % of the 60 s budget.
// The protocol *runs at the edge of its deadline budget by design*, so
// near-misses (> 90 % of budget) are the steady state and misses are the
// signal.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"

namespace osumac::obs {

class MetricsRegistry;

/// Log-spaced fixed-bucket histogram over [lo, hi).  Bucket edges are
/// lo * step^i with `per_decade` buckets per decade; samples below lo land
/// in bucket 0, samples at or above hi in the last bucket.  Quantiles are
/// answered as the upper edge of the bucket where the cumulative count
/// crosses q — exact to within one bucket width, with no sample retention.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, int per_decade);

  void Add(double value);

  /// Adds `other`'s buckets into this histogram.  Both must share the
  /// exact (lo, hi, buckets) shape.  Every field is integer counts or a
  /// max of exact inputs, so merging any partition of one observation
  /// stream, in any order, reproduces the single-stream histogram
  /// bit-for-bit (pinned by tests/rollup_test.cc) — the property that
  /// lets N per-cell monitors roll up into one network digest.
  void Merge(const LogHistogram& other);

  std::int64_t count() const { return count_; }
  double max_seen() const { return count_ > 0 ? max_ : 0.0; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t buckets() const { return counts_.size(); }
  std::int64_t bucket_count(std::size_t i) const { return counts_[i]; }
  /// Running keyed sum of the bucket counts, sum_i bucket_count(i) *
  /// DigestKey(i) (common/rng.h): a pure function of the counts, kept at
  /// one add per Add so a journal record hashes a histogram in O(1).
  std::uint64_t bucket_digest() const { return bucket_digest_; }

  /// Upper edge of the bucket holding the q-quantile (q in [0, 1]).
  /// Returns 0 when empty.
  double Quantile(double q) const;

  /// Edges of the bucket that would hold `value` — the monitor's error bar.
  double BucketLower(double value) const;
  double BucketUpper(double value) const;

 private:
  int IndexFor(double value) const;

  double lo_;
  double hi_;
  double inv_log_step_;
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  double max_ = 0.0;
  std::uint64_t bucket_digest_ = 0;
};

/// The monitored delay classes.
enum class SloClass : int {
  kGpsAccess = 0,      ///< fix ready -> GPS slot TX begin (budget 4 s)
  kGpsDeliveryGap,     ///< gap between successive decoded reports of one
                       ///< user (budget 4 s; what an erasure burst blows)
  kCheckingDelay,      ///< gap between an inactive user's paging listens
                       ///< (budget 60 s)
  kDataAccess,         ///< data arrival -> first slot TX begin (no budget)
  kCount,
};
inline constexpr int kSloClassCount = static_cast<int>(SloClass::kCount);

const char* SloClassName(SloClass c);
/// Budget in seconds; <= 0 means unbudgeted (distribution tracking only).
double SloBudgetSeconds(SloClass c);

/// One class's digest, comparable across runs (and across --jobs values:
/// every field is derived from integer counters and exact inputs).
struct SloClassSummary {
  std::string name;
  double budget_seconds = 0.0;
  std::int64_t count = 0;
  std::int64_t misses = 0;
  std::int64_t near_misses = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max_seconds = 0.0;
};

class SloMonitor {
 public:
  SloMonitor();

  /// Records one observation of `seconds` for class `c`.  An observation
  /// above the class budget is a miss; above 90 % of it, a near-miss.
  void Observe(SloClass c, double seconds);

  std::int64_t count(SloClass c) const { return Class(c).hist.count(); }
  std::int64_t misses(SloClass c) const { return Class(c).misses; }
  std::int64_t near_misses(SloClass c) const { return Class(c).near_misses; }
  const LogHistogram& histogram(SloClass c) const { return Class(c).hist; }

  /// Adds `other`'s histograms and miss/near-miss counters into this
  /// monitor, class by class.  Merge order never matters: integer adds
  /// commute exactly, so a network rollup digest is bit-identical whether
  /// the per-cell monitors merge left-to-right, shuffled, or pairwise in
  /// a tree — and equals the digest of one monitor fed the combined
  /// stream (tests/rollup_test.cc pins both properties).
  void Merge(const SloMonitor& other);

  /// True once any budgeted class has recorded a miss.
  bool BudgetBreached() const;
  /// "gps_delivery_gap: 2 miss(es), worst 7.97 s vs 4 s budget" or "".
  std::string BreachSummary() const;

  std::vector<SloClassSummary> Summary() const;
  void WriteReport(std::ostream& out) const;

  /// Clears histograms and miss counters (warm-up boundary).  Callers
  /// owning gap trackers (mac::Cell) clear them at the same boundary so
  /// no observation straddles the reset.
  void Reset();

 private:
  struct PerClass {
    LogHistogram hist;
    std::int64_t misses = 0;
    std::int64_t near_misses = 0;
  };
  const PerClass& Class(SloClass c) const {
    const int i = static_cast<int>(c);
    OSUMAC_CHECK(i >= 0 && i < kSloClassCount);
    return classes_[static_cast<std::size_t>(i)];
  }
  PerClass& Class(SloClass c) {
    return const_cast<PerClass&>(static_cast<const SloMonitor*>(this)->Class(c));
  }

  std::vector<PerClass> classes_;
};

/// Binds slo.<class>.{count,misses,near_misses,p99,max_seconds} pull-gauges,
/// all under `prefix` (e.g. "cell.3." for a network's per-cell labels).
/// `slo` must outlive the registry's collection.
void RegisterSloMetrics(MetricsRegistry& registry, const SloMonitor& slo,
                        const std::string& prefix = "");

}  // namespace osumac::obs
