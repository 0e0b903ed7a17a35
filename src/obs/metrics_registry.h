// Named-metric registry of pull gauges: components register a callback per
// value they already maintain (queue depths, BsCounters fields, sim clock),
// so existing counter structs join the registry without being rewritten.
//
// Collect() samples every gauge into a name -> value map; Delta() subtracts
// two snapshots, which is the generic replacement for the hand-written
// per-field delta tracking the CycleTracer used to carry.
//
// Thread safety: the name -> gauge map is guarded by an internal mutex, so
// registration and Collect() may race from different threads — e.g. a live
// exporter sampling while a run is still wiring gauges up.  Gauge callbacks
// run under the registry mutex and must not call back in.
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>

#include "common/sync.h"

namespace osumac::obs {

class MetricsRegistry {
 public:
  /// Name -> value at one Collect() instant.
  using Snapshot = std::map<std::string, double>;

  /// Registers (or replaces) a pull gauge sampled at every Collect().
  void RegisterGauge(const std::string& name, std::function<double()> sample)
      EXCLUDES(mu_);

  bool Contains(const std::string& name) const EXCLUDES(mu_);

  /// Drops every registered gauge, returning the registry to its freshly
  /// constructed state — for rebinding to a new source (CycleTracer).
  void Reset() EXCLUDES(mu_);

  /// Samples every gauge.
  Snapshot Collect() const EXCLUDES(mu_);

  /// now[name] - prev[name]; names absent from `prev` count as 0 (so the
  /// first delta after binding is the delta from zero).
  static double Delta(const Snapshot& now, const Snapshot& prev,
                      const std::string& name);
  /// Value lookup with a 0 default, for optional metrics.
  static double Value(const Snapshot& snapshot, const std::string& name);

  // --- export ----------------------------------------------------------------

  /// "name,value" rows sorted by name, with a header.
  void WriteCsv(std::ostream& out) const EXCLUDES(mu_);

  /// One JSON object of "name": value pairs sorted by name.
  void WriteJson(std::ostream& out) const EXCLUDES(mu_);

 private:
  /// Collect() body for callers already holding mu_ (WriteCsv/WriteJson).
  Snapshot CollectLocked() const REQUIRES(mu_);

  mutable Mutex mu_;
  // std::map, not unordered: Collect()/WriteCsv/WriteJson iterate it, and
  // iteration order reaches exported artifacts (deterministic by rule
  // ordered-iteration, tools/osumac_lint).
  std::map<std::string, std::function<double()>> gauges_ GUARDED_BY(mu_);
};

}  // namespace osumac::obs
