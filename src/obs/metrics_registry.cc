#include "obs/metrics_registry.h"

#include <cstdint>
#include <iomanip>
#include <limits>
#include <utility>

namespace osumac::obs {

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    std::function<double()> sample) {
  const MutexLock lock(mu_);
  gauges_[name] = std::move(sample);
}

bool MetricsRegistry::Contains(const std::string& name) const {
  const MutexLock lock(mu_);
  return gauges_.contains(name);
}

void MetricsRegistry::Reset() {
  const MutexLock lock(mu_);
  gauges_.clear();
}

MetricsRegistry::Snapshot MetricsRegistry::CollectLocked() const {
  Snapshot snapshot;
  for (const auto& [name, sample] : gauges_) snapshot[name] = sample();
  return snapshot;
}

MetricsRegistry::Snapshot MetricsRegistry::Collect() const {
  const MutexLock lock(mu_);
  return CollectLocked();
}

double MetricsRegistry::Delta(const Snapshot& now, const Snapshot& prev,
                              const std::string& name) {
  const auto n = now.find(name);
  if (n == now.end()) return 0.0;
  const auto p = prev.find(name);
  return p == prev.end() ? n->second : n->second - p->second;
}

double MetricsRegistry::Value(const Snapshot& snapshot, const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

namespace {

/// Writes a double so that integers stay integral and everything else keeps
/// full round-trip precision (both CSV and JSON use this form).
void WriteNumber(std::ostream& out, double v) {
  const auto as_int = static_cast<std::int64_t>(v);
  if (static_cast<double>(as_int) == v) {
    out << as_int;
  } else {
    out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  }
}

}  // namespace

void MetricsRegistry::WriteCsv(std::ostream& out) const {
  const MutexLock lock(mu_);
  out << "metric,value\n";
  for (const auto& [name, value] : CollectLocked()) {
    out << name << ',';
    WriteNumber(out, value);
    out << '\n';
  }
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  const MutexLock lock(mu_);
  out << "{";
  bool first = true;
  for (const auto& [name, value] : CollectLocked()) {
    out << (first ? "" : ",") << "\n  \"" << name << "\": ";
    WriteNumber(out, value);
    first = false;
  }
  out << "\n}\n";
}

}  // namespace osumac::obs
