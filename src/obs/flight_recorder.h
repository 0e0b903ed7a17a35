// Post-mortem flight recorder: a bounded ring of recent per-cycle metrics
// snapshots riding on top of the (already bounded) EventTrace, latched by a
// trip condition and dumped to a self-describing directory.
//
// The recorder itself is passive plumbing — it never decides *when* to
// trip.  Trigger policy lives with whoever can see failures:
// analysis::FlightRecorderObserver watches the ProtocolAuditor and
// SloMonitor each cycle.  That split keeps obs free of mac/analysis
// dependencies.
//
// Thread safety: all state is guarded by an internal mutex, so a recorder
// may be tripped from a thread other than the one feeding OnCycle (the
// parallel-Network shape: worker cells snapshotting, a supervisor
// tripping).  The attached trace/registry/slo objects synchronize
// themselves; Dump() only reads them.
//
// A dump directory contains (see docs/OBSERVABILITY.md):
//   MANIFEST.txt   provenance, trip reason + cycle, file inventory
//   events.jsonl   the retained event window (obs JSONL schema)
//   lifecycles.txt WriteLifecycleReport over that window
//   metrics.csv    cycle,name,value rows for the retained snapshots
//   slo_report.txt SloMonitor::WriteReport at dump time
//   scenario.txt   the active ScenarioSpec's description
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/sync.h"
#include "obs/event_trace.h"
#include "obs/metrics_registry.h"
#include "obs/slo.h"

namespace osumac::obs {

class FlightRecorder {
 public:
  /// Metrics snapshots retained.
  static constexpr std::size_t kMaxCycles = 64;

  // All attachments are optional; absent sources simply produce no file.
  void AttachTrace(const EventTrace* trace) EXCLUDES(mu_);
  void AttachRegistry(const MetricsRegistry* registry) EXCLUDES(mu_);
  void AttachSlo(const SloMonitor* slo) EXCLUDES(mu_);
  void SetScenario(std::string description) EXCLUDES(mu_);
  void SetProvenance(std::string line) EXCLUDES(mu_);

  /// Snapshots the attached registry for cycle `cycle`, evicting the
  /// oldest snapshot beyond the ring bound.  Call once per planned cycle.
  void OnCycle(std::int64_t cycle) EXCLUDES(mu_);

  /// Latches the first trip; later calls are ignored so the dump describes
  /// the original failure, not a cascade.
  void Trip(const std::string& reason, std::int64_t cycle) EXCLUDES(mu_);

  bool tripped() const EXCLUDES(mu_);
  std::string trip_reason() const EXCLUDES(mu_);
  std::int64_t trip_cycle() const EXCLUDES(mu_);
  std::size_t snapshots() const EXCLUDES(mu_);

  /// Writes the dump directory (created if needed).  Returns false and
  /// fills `error` on filesystem failure.
  bool Dump(const std::string& dir, std::string* error) const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  const EventTrace* trace_ GUARDED_BY(mu_) = nullptr;
  const MetricsRegistry* registry_ GUARDED_BY(mu_) = nullptr;
  const SloMonitor* slo_ GUARDED_BY(mu_) = nullptr;
  std::string scenario_ GUARDED_BY(mu_);
  std::string provenance_ GUARDED_BY(mu_);
  std::deque<std::pair<std::int64_t, MetricsRegistry::Snapshot>> ring_
      GUARDED_BY(mu_);
  bool tripped_ GUARDED_BY(mu_) = false;
  std::string trip_reason_ GUARDED_BY(mu_);
  std::int64_t trip_cycle_ GUARDED_BY(mu_) = -1;
};

}  // namespace osumac::obs
