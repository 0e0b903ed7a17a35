#include "obs/span.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>

#include "obs/sinks.h"
#include "obs/slo.h"

namespace osumac::obs {

bool Lifecycle::Has(std::int64_t stage) const {
  return std::any_of(stages.begin(), stages.end(),
                     [stage](const LifecycleStageRecord& r) { return r.stage == stage; });
}

bool Lifecycle::HasBirth() const {
  return !stages.empty() && stages.front().stage == kStageGenerated;
}

bool Lifecycle::Terminated() const {
  return !stages.empty() && LifecycleStageTerminal(stages.back().stage, cls);
}

bool Lifecycle::Complete() const { return HasBirth() && Terminated(); }

std::vector<Lifecycle> CollectLifecycles(const EventTrace& trace) {
  std::vector<Lifecycle> out;
  std::map<std::int64_t, std::size_t> index;
  trace.ForEach([&out, &index](const Event& e) {
    if (e.kind != EventKind::kLifecycle || e.a1 == 0) return;
    auto [it, fresh] = index.emplace(e.a1, out.size());
    if (fresh) {
      Lifecycle lc;
      lc.id = e.a1;
      lc.cls = e.a3;
      out.push_back(lc);
    }
    Lifecycle& lc = out[it->second];
    if (lc.node < 0) lc.node = e.node;
    if (lc.uid < 0) lc.uid = e.uid;
    lc.stages.push_back({e.a0, e.tick, e.span, e.a2, e.slot});
  });
  return out;
}

SpanBreakdown BreakDown(const std::vector<Lifecycle>& lifecycles) {
  SpanBreakdown out;
  for (const Lifecycle& lc : lifecycles) {
    if (lc.Complete()) {
      ++out.complete;
    } else if (lc.Terminated()) {
      ++out.truncated_head;
    } else {
      ++out.open;
    }
    for (std::size_t i = 1; i < lc.stages.size(); ++i) {
      out.transitions[{lc.cls, lc.stages[i - 1].stage, lc.stages[i].stage}].Add(
          ToSeconds(lc.stages[i].tick - lc.stages[i - 1].tick));
    }
  }
  return out;
}

void SpanBreakdown::Write(std::ostream& out) const {
  out << "lifecycles: " << complete << " complete, " << truncated_head
      << " head-truncated, " << open << " open\n";
  // The class and both stage columns are padded to their longest name, so
  // every row's "->" and "n=" line up.
  std::size_t cls_width = 0;
  std::size_t stage_width = 0;
  for (const auto& [key, stats] : transitions) {
    const auto& [cls, from, to] = key;
    cls_width = std::max(cls_width, std::strlen(LifecycleClassName(cls)));
    stage_width = std::max({stage_width, std::strlen(LifecycleStageName(from)),
                            std::strlen(LifecycleStageName(to))});
  }
  const auto cls_w = static_cast<int>(cls_width);
  const auto stage_w = static_cast<int>(stage_width);
  for (const auto& [key, stats] : transitions) {
    const auto& [cls, from, to] = key;
    out << "  " << std::left << std::setw(cls_w) << LifecycleClassName(cls) << ' '
        << std::setw(stage_w) << LifecycleStageName(from) << " -> "
        << std::setw(stage_w) << LifecycleStageName(to) << std::right
        << " n=" << std::setw(7) << stats.count() << "  mean=" << stats.mean()
        << "s  max=" << stats.max() << "s\n";
  }
}

namespace {

/// Seconds at the report's 0.1 ms resolution.
std::string Seconds(Tick t) {
  std::ostringstream s;
  s << std::fixed << std::setprecision(4) << ToSeconds(t) << 's';
  return s.str();
}

/// "dropped[collision]@slot3": the stage, its drop code, its slot.
std::string StageLabel(const LifecycleStageRecord& r) {
  std::string label = LifecycleStageName(r.stage);
  if (r.stage == kStageDropped) {
    label += std::string("[") + LifecycleDropCodeName(r.detail) + "]";
  }
  if (r.slot >= 0) label += "@slot" + std::to_string(r.slot);
  return label;
}

}  // namespace

void WriteLifecycleReport(std::ostream& out, const EventTrace& trace) {
  // Formatted apart from `out` so the caller's stream state never leaks in.
  std::ostringstream report;
  const std::vector<Lifecycle> lifecycles = CollectLifecycles(trace);
  BreakDown(lifecycles).Write(report);

  std::map<std::int32_t, std::vector<Tick>> arrivals;  // node -> delivery ends
  for (const Lifecycle& lc : lifecycles) {
    const LifecycleStageRecord& last = lc.stages.back();
    if (lc.cls == kClassGps && last.stage == kStageDelivered) {
      arrivals[lc.node].push_back(last.span.end);
    }
    if (last.stage != kStageDropped) continue;
    report << "dropped " << LifecycleClassName(lc.cls) << " lifecycle 0x"
           << std::hex << lc.id << std::dec << " node " << lc.node << ": "
           << StageLabel(lc.stages.front()) << " t=" << Seconds(lc.stages.front().tick);
    for (std::size_t i = 1; i < lc.stages.size(); ++i) {
      report << " -> " << StageLabel(lc.stages[i]) << " (+"
             << Seconds(lc.stages[i].tick - lc.stages[i - 1].tick) << ')';
    }
    report << '\n';
  }

  const double budget = SloBudgetSeconds(SloClass::kGpsDeliveryGap);
  for (auto& [node, ends] : arrivals) {
    std::sort(ends.begin(), ends.end());
    for (std::size_t i = 1; i < ends.size(); ++i) {
      if (ToSeconds(ends[i] - ends[i - 1]) <= budget) continue;
      report << "BLOWN BUDGET: node " << node << " inter-delivery gap "
             << Seconds(ends[i] - ends[i - 1]) << " > " << budget
             << "s (delivered at " << Seconds(ends[i - 1]) << ", next at "
             << Seconds(ends[i]) << ")\n";
    }
  }
  for (const Lifecycle& lc : lifecycles) {
    const LifecycleStageRecord& last = lc.stages.back();
    if (lc.cls != kClassGps || last.stage != kStageDropped ||
        !lc.Has(kStageSlotTx)) {
      continue;
    }
    report << "BLOWN BUDGET: node " << lc.node
           << " lost its report after slot_tx, so the gap around it spans "
              "two cycles: "
           << StageLabel(lc.stages[lc.stages.size() - 2]) << " -> "
           << StageLabel(last) << " at t=" << Seconds(last.tick) << '\n';
  }
  out << report.str();
}

}  // namespace osumac::obs
