#include "obs/span.h"

#include <algorithm>
#include <iomanip>

#include "obs/sinks.h"

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
  for (const auto& [key, stats] : transitions) {
    const auto& [cls, from, to] = key;
    out << "  " << LifecycleClassName(cls) << ' ' << LifecycleStageName(from)
        << " -> " << std::setw(14) << std::left << LifecycleStageName(to)
        << std::right << " n=" << std::setw(7) << stats.count() << "  mean="
        << stats.mean() << "s  max=" << stats.max() << "s\n";
  }
}

}  // namespace osumac::obs
