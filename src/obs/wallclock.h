// Scoped wall-clock timers for measuring the simulator itself (not
// simulated time): how long a RunUntil took, how much the tracer costs.
//
// Timers are named and registered; each observation feeds a RunningStats,
// so overhead questions ("is tracing within noise?") are answered from the
// same run that did the work.  steady_clock only — these numbers are for
// humans and benches, never for simulation logic.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>

#include "common/stats.h"

namespace osumac::obs {

/// Named collection of wall-clock duration statistics (seconds).
class WallTimerRegistry {
 public:
  /// Stats for `name`, created on first use.
  RunningStats& timer(const std::string& name) { return timers_[name]; }

  const std::map<std::string, RunningStats>& timers() const { return timers_; }

  bool empty() const { return timers_.empty(); }
  void Clear() { timers_.clear(); }

  /// One line per timer: name, count, total/mean/max in milliseconds.
  void Report(std::ostream& out) const;

 private:
  std::map<std::string, RunningStats> timers_;
};

/// Machine-readable perf trajectory: one JSON object with a provenance
/// header and a "phases" array (name, count, total/mean/max seconds at
/// %.17g).  This is the BENCH_perf.json schema tools/check_perf.py
/// validates.
void WriteWallTimersJson(std::ostream& out, const WallTimerRegistry& registry,
                         const std::string& provenance);

/// Free-standing wall-clock stopwatch for tools that just want "how long
/// did that take" without a registry.  This (and ScopedWallTimer) is the
/// sanctioned way to read wall time outside src/obs — the raw-clock lint
/// rule forbids direct std::chrono use elsewhere, so host-time access
/// stays corralled where determinism reviews can see it.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction.
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer: measures from construction to destruction and pushes the
/// elapsed seconds into `registry.timer(name)`.
class ScopedWallTimer {
 public:
  ScopedWallTimer(WallTimerRegistry& registry, const std::string& name)
      : stats_(&registry.timer(name)),
        start_(std::chrono::steady_clock::now()) {}

  /// No-op when `registry` is null (timers not attached).
  ScopedWallTimer(WallTimerRegistry* registry, const std::string& name)
      : stats_(registry != nullptr ? &registry->timer(name) : nullptr),
        start_(std::chrono::steady_clock::now()) {}

  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

  ~ScopedWallTimer() {
    if (stats_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    stats_->Add(std::chrono::duration<double>(elapsed).count());
  }

 private:
  RunningStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace osumac::obs
