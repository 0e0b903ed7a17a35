#include "obs/flight_recorder.h"

#include <filesystem>
#include <fstream>
#include <limits>

#include "obs/sinks.h"
#include "obs/span.h"

namespace osumac::obs {

void FlightRecorder::AttachTrace(const EventTrace* trace) {
  const MutexLock lock(mu_);
  trace_ = trace;
}

void FlightRecorder::AttachRegistry(const MetricsRegistry* registry) {
  const MutexLock lock(mu_);
  registry_ = registry;
}

void FlightRecorder::AttachSlo(const SloMonitor* slo) {
  const MutexLock lock(mu_);
  slo_ = slo;
}

void FlightRecorder::SetScenario(std::string description) {
  const MutexLock lock(mu_);
  scenario_ = std::move(description);
}

void FlightRecorder::SetProvenance(std::string line) {
  const MutexLock lock(mu_);
  provenance_ = std::move(line);
}

void FlightRecorder::OnCycle(std::int64_t cycle) {
  const MutexLock lock(mu_);
  // Nested acquisition of the registry's own mutex inside ours; safe, the
  // registry never calls back into the recorder.
  ring_.emplace_back(cycle, registry_ ? registry_->Collect()
                                      : MetricsRegistry::Snapshot{});
  while (ring_.size() > kMaxCycles) ring_.pop_front();
}

void FlightRecorder::Trip(const std::string& reason, std::int64_t cycle) {
  const MutexLock lock(mu_);
  if (tripped_) return;
  tripped_ = true;
  trip_reason_ = reason;
  trip_cycle_ = cycle;
}

bool FlightRecorder::tripped() const {
  const MutexLock lock(mu_);
  return tripped_;
}

std::string FlightRecorder::trip_reason() const {
  const MutexLock lock(mu_);
  return trip_reason_;
}

std::int64_t FlightRecorder::trip_cycle() const {
  const MutexLock lock(mu_);
  return trip_cycle_;
}

std::size_t FlightRecorder::snapshots() const {
  const MutexLock lock(mu_);
  return ring_.size();
}

bool FlightRecorder::Dump(const std::string& dir, std::string* error) const {
  const MutexLock lock(mu_);
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error) *error = "create_directories(" + dir + "): " + ec.message();
    return false;
  }
  const auto open = [&](const char* name, std::ofstream& out) {
    out.open(fs::path(dir) / name);
    if (!out) {
      if (error) *error = std::string("cannot open ") + name + " in " + dir;
      return false;
    }
    out.precision(std::numeric_limits<double>::max_digits10);
    return true;
  };

  std::ofstream manifest;
  if (!open("MANIFEST.txt", manifest)) return false;
  manifest << "flight-recorder dump\n";
  if (!provenance_.empty()) manifest << provenance_ << "\n";
  manifest << "tripped: " << (tripped_ ? "yes" : "no") << "\n";
  if (tripped_) {
    manifest << "reason: " << trip_reason_ << "\n"
             << "cycle: " << trip_cycle_ << "\n";
  }
  manifest << "snapshots: " << ring_.size() << "\n";
  if (trace_) {
    manifest << "events: " << trace_->size() << " retained, "
             << trace_->dropped() << " dropped by the ring\n";
  }
  manifest << "files: MANIFEST.txt";
  if (trace_) manifest << " events.jsonl lifecycles.txt";
  manifest << " metrics.csv";
  if (slo_) manifest << " slo_report.txt";
  if (!scenario_.empty()) manifest << " scenario.txt";
  manifest << "\n";

  if (trace_) {
    std::ofstream events;
    if (!open("events.jsonl", events)) return false;
    WriteJsonl(events, *trace_);
    std::ofstream lifecycles;
    if (!open("lifecycles.txt", lifecycles)) return false;
    WriteLifecycleReport(lifecycles, *trace_);
  }

  std::ofstream metrics;
  if (!open("metrics.csv", metrics)) return false;
  metrics << "cycle,name,value\n";
  for (const auto& [cycle, snapshot] : ring_) {
    for (const auto& [name, value] : snapshot) {
      metrics << cycle << ',' << name << ',' << value << '\n';
    }
  }

  if (slo_) {
    std::ofstream slo_out;
    if (!open("slo_report.txt", slo_out)) return false;
    slo_->WriteReport(slo_out);
  }

  if (!scenario_.empty()) {
    std::ofstream scenario;
    if (!open("scenario.txt", scenario)) return false;
    scenario << scenario_ << "\n";
  }
  return true;
}

}  // namespace osumac::obs
