#include "obs/slo.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/rng.h"
#include "obs/metrics_registry.h"

namespace osumac::obs {

namespace {

// One shared shape for every class: 1e-4 s .. 1e5 s at 20 buckets per
// decade (~12 % relative bucket width).  Covers a single slot time
// (~2.7 ms) up to a full soak run's worst gap.
constexpr double kHistLo = 1e-4;
constexpr double kHistHi = 1e5;
constexpr int kHistPerDecade = 20;

}  // namespace

LogHistogram::LogHistogram(double lo, double hi, int per_decade)
    : lo_(lo), hi_(hi) {
  OSUMAC_CHECK(lo > 0.0 && hi > lo && per_decade > 0);
  const double decades = std::log10(hi / lo);
  const auto buckets = static_cast<std::size_t>(std::ceil(decades * per_decade));
  counts_.assign(buckets, 0);
  // log(step) with step = 10^(1/per_decade).
  inv_log_step_ = per_decade / std::log(10.0);
}

int LogHistogram::IndexFor(double value) const {
  if (!(value > lo_)) return 0;
  const auto i = static_cast<int>(std::log(value / lo_) * inv_log_step_);
  const int last = static_cast<int>(counts_.size()) - 1;
  return i < 0 ? 0 : (i > last ? last : i);
}

void LogHistogram::Add(double value) {
  const auto i = static_cast<std::size_t>(IndexFor(value));
  ++counts_[i];
  bucket_digest_ += DigestKey(i);
  ++count_;
  if (value > max_) max_ = value;
}

void LogHistogram::Merge(const LogHistogram& other) {
  OSUMAC_CHECK_EQ(lo_, other.lo_);
  OSUMAC_CHECK_EQ(hi_, other.hi_);
  OSUMAC_CHECK_EQ(counts_.size(), other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  bucket_digest_ += other.bucket_digest_;
  if (other.max_ > max_) max_ = other.max_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Smallest bucket whose cumulative count reaches rank ceil(q * n) >= 1;
  // answer its upper edge.
  double target = q * static_cast<double>(count_);
  if (target < 1.0) target = 1.0;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (static_cast<double>(seen) >= target) {
      return lo_ * std::exp(static_cast<double>(i + 1) / inv_log_step_);
    }
  }
  return hi_;
}

double LogHistogram::BucketLower(double value) const {
  return lo_ * std::exp(static_cast<double>(IndexFor(value)) / inv_log_step_);
}

double LogHistogram::BucketUpper(double value) const {
  return lo_ * std::exp(static_cast<double>(IndexFor(value) + 1) / inv_log_step_);
}

const char* SloClassName(SloClass c) {
  switch (c) {
    case SloClass::kGpsAccess:      return "gps_access";
    case SloClass::kGpsDeliveryGap: return "gps_delivery_gap";
    case SloClass::kCheckingDelay:  return "checking_delay";
    case SloClass::kDataAccess:     return "data_access";
    case SloClass::kCount:          break;
  }
  return "unknown";
}

double SloBudgetSeconds(SloClass c) {
  switch (c) {
    case SloClass::kGpsAccess:      return 4.0;   // paper §3.1: 4 s GPS window
    case SloClass::kGpsDeliveryGap: return 4.0;   // one report per window
    case SloClass::kCheckingDelay:  return 60.0;  // paper §3.2: 1 min checking
    case SloClass::kDataAccess:     return 0.0;   // unbudgeted
    case SloClass::kCount:          break;
  }
  return 0.0;
}

SloMonitor::SloMonitor() {
  classes_.reserve(kSloClassCount);
  for (int i = 0; i < kSloClassCount; ++i) {
    classes_.push_back({LogHistogram(kHistLo, kHistHi, kHistPerDecade), 0, 0});
  }
}

void SloMonitor::Observe(SloClass c, double seconds) {
  PerClass& pc = Class(c);
  pc.hist.Add(seconds);
  const double budget = SloBudgetSeconds(c);
  if (budget <= 0.0) return;
  if (seconds > budget) {
    ++pc.misses;
  } else if (seconds > 0.9 * budget) {
    ++pc.near_misses;
  }
}

void SloMonitor::Merge(const SloMonitor& other) {
  for (int i = 0; i < kSloClassCount; ++i) {
    PerClass& dst = classes_[static_cast<std::size_t>(i)];
    const PerClass& src = other.classes_[static_cast<std::size_t>(i)];
    dst.hist.Merge(src.hist);
    dst.misses += src.misses;
    dst.near_misses += src.near_misses;
  }
}

bool SloMonitor::BudgetBreached() const {
  for (int i = 0; i < kSloClassCount; ++i) {
    if (classes_[static_cast<std::size_t>(i)].misses > 0) return true;
  }
  return false;
}

std::string SloMonitor::BreachSummary() const {
  std::ostringstream out;
  for (int i = 0; i < kSloClassCount; ++i) {
    const auto c = static_cast<SloClass>(i);
    const PerClass& pc = classes_[static_cast<std::size_t>(i)];
    if (pc.misses == 0) continue;
    if (out.tellp() > 0) out << "; ";
    out << SloClassName(c) << ": " << pc.misses << " miss(es), worst "
        << pc.hist.max_seen() << " s vs " << SloBudgetSeconds(c)
        << " s budget";
  }
  return out.str();
}

std::vector<SloClassSummary> SloMonitor::Summary() const {
  std::vector<SloClassSummary> out;
  out.reserve(kSloClassCount);
  for (int i = 0; i < kSloClassCount; ++i) {
    const auto c = static_cast<SloClass>(i);
    const PerClass& pc = classes_[static_cast<std::size_t>(i)];
    SloClassSummary s;
    s.name = SloClassName(c);
    s.budget_seconds = SloBudgetSeconds(c);
    s.count = pc.hist.count();
    s.misses = pc.misses;
    s.near_misses = pc.near_misses;
    s.p50 = pc.hist.Quantile(0.5);
    s.p90 = pc.hist.Quantile(0.9);
    s.p99 = pc.hist.Quantile(0.99);
    s.max_seconds = pc.hist.max_seen();
    out.push_back(s);
  }
  return out;
}

void SloMonitor::WriteReport(std::ostream& out) const {
  out << "--- SLO report ---\n";
  for (const SloClassSummary& s : Summary()) {
    out << std::setw(17) << std::left << s.name << std::right;
    if (s.budget_seconds > 0.0) {
      out << " budget=" << std::setw(4) << s.budget_seconds << "s";
    } else {
      out << "  (unbudgeted)";
    }
    out << "  n=" << std::setw(8) << s.count << "  miss=" << std::setw(5)
        << s.misses << "  near=" << std::setw(8) << s.near_misses
        << "  p50=" << s.p50 << "s  p99=" << s.p99 << "s  max="
        << s.max_seconds << "s\n";
  }
  if (BudgetBreached()) out << "BREACH: " << BreachSummary() << "\n";
}

void SloMonitor::Reset() {
  for (PerClass& pc : classes_) {
    pc = {LogHistogram(kHistLo, kHistHi, kHistPerDecade), 0, 0};
  }
}

void RegisterSloMetrics(MetricsRegistry& registry, const SloMonitor& slo,
                        const std::string& prefix_in) {
  for (int i = 0; i < kSloClassCount; ++i) {
    const auto c = static_cast<SloClass>(i);
    const std::string prefix = prefix_in + "slo." + SloClassName(c) + ".";
    registry.RegisterGauge(prefix + "count", [&slo, c] {
      return static_cast<double>(slo.count(c));
    });
    registry.RegisterGauge(prefix + "misses", [&slo, c] {
      return static_cast<double>(slo.misses(c));
    });
    registry.RegisterGauge(prefix + "near_misses", [&slo, c] {
      return static_cast<double>(slo.near_misses(c));
    });
    registry.RegisterGauge(prefix + "p99", [&slo, c] {
      return slo.histogram(c).Quantile(0.99);
    });
    registry.RegisterGauge(prefix + "max_seconds", [&slo, c] {
      return slo.histogram(c).max_seen();
    });
  }
}

}  // namespace osumac::obs
