#include "obs/timeline.h"

#include <algorithm>
#include <limits>

namespace osumac::obs {

namespace {

/// Index of the reconstructed cycle whose span contains `t`, or -1.
int CycleIndexAt(const std::vector<TimelineCycle>& cycles, Tick t) {
  if (cycles.empty()) return -1;
  // Cycles arrive ordered and contiguous; binary-search by span begin.
  auto it = std::upper_bound(cycles.begin(), cycles.end(), t,
                             [](Tick value, const TimelineCycle& c) {
                               return value < c.span.begin;
                             });
  if (it == cycles.begin()) return -1;
  --it;
  if (!it->span.Contains(t)) return -1;
  return static_cast<int>(it - cycles.begin());
}

Tick OverlapTicks(Interval a, Interval b) {
  const Tick begin = std::max(a.begin, b.begin);
  const Tick end = std::min(a.end, b.end);
  return end > begin ? end - begin : 0;
}

struct RadioSpan {
  Interval span;
  bool is_tx = false;
};

}  // namespace

double Timeline::ReverseBusyFraction() const {
  const Tick total = reverse_total.busy() + reverse_total.idle;
  return total > 0 ? static_cast<double>(reverse_total.busy()) / static_cast<double>(total)
                   : 0.0;
}

double Timeline::ForwardBusyFraction() const {
  const Tick total = forward_total.busy() + forward_total.idle;
  return total > 0 ? static_cast<double>(forward_total.busy()) / static_cast<double>(total)
                   : 0.0;
}

Tick Timeline::MinGuardObserved() const {
  Tick min = std::numeric_limits<Tick>::max();
  for (const auto& [node, gap] : min_tx_rx_gap) min = std::min(min, gap);
  return min;
}

Timeline ReconstructTimeline(const EventTrace& trace) {
  Timeline out;
  out.events_dropped = trace.dropped();

  std::vector<Interval> cf_spans;          ///< control-field windows, in order
  std::vector<Interval> busy_reverse;      ///< reverse spans that carried energy
  std::map<int, std::vector<RadioSpan>> radio;  ///< node -> commitments

  trace.ForEach([&](const Event& e) {
    ++out.events_consumed;
    switch (e.kind) {
      case EventKind::kCycleStart: {
        TimelineCycle cycle;
        cycle.cycle = e.cycle;
        cycle.span = e.span;
        cycle.format = static_cast<int>(e.a0);
        cycle.capacity_bytes = e.a3;
        out.cycles.push_back(cycle);
        out.capacity_bytes += e.a3;
        break;
      }
      case EventKind::kCfDelivered: {
        const int idx = CycleIndexAt(out.cycles, e.span.begin);
        if (idx >= 0) out.cycles[static_cast<std::size_t>(idx)].forward.control += e.span.length();
        cf_spans.push_back(e.span);
        break;
      }
      case EventKind::kForwardTx: {
        const int idx = CycleIndexAt(out.cycles, e.span.begin);
        if (idx >= 0) out.cycles[static_cast<std::size_t>(idx)].forward.data += e.span.length();
        break;
      }
      case EventKind::kSlotResolved: {
        const int idx = CycleIndexAt(out.cycles, e.span.begin);
        if (e.a0 != kOutcomeIdle) busy_reverse.push_back(e.span);
        if (idx < 0) break;
        ChannelOccupancy& rev = out.cycles[static_cast<std::size_t>(idx)].reverse;
        const Tick len = e.span.length();
        const bool is_gps = e.a3 != 0;
        switch (e.a0) {
          case kOutcomeIdle:
            break;  // stays idle airtime
          case kOutcomeCollision:
            rev.collision += len;
            break;
          case kOutcomeDecodeFailure:
            rev.corrupted += len;
            break;
          case kOutcomeDecoded:
            if (is_gps) {
              rev.gps += len;
            } else if (e.a1 != 0) {
              rev.data += len;  // assigned slot
            } else {
              rev.contention += len;
            }
            break;
          default:
            break;
        }
        break;
      }
      case EventKind::kDelivery: {
        if (e.a1 == 0) {  // not a duplicate
          out.payload_bytes += e.a0;
          const int idx = CycleIndexAt(out.cycles, e.tick);
          if (idx >= 0) out.cycles[static_cast<std::size_t>(idx)].payload_bytes += e.a0;
        }
        break;
      }
      case EventKind::kRadioTx:
      case EventKind::kRadioRx:
        radio[e.node].push_back({e.span, e.kind == EventKind::kRadioTx});
        break;
      default:
        break;
    }
  });

  // Idle airtime = the rest of each cycle's span, per channel.
  for (TimelineCycle& cycle : out.cycles) {
    cycle.forward.idle = std::max<Tick>(0, cycle.span.length() - cycle.forward.busy());
    cycle.reverse.idle = std::max<Tick>(0, cycle.span.length() - cycle.reverse.busy());
  }

  // Reverse-burst airtime inside control-field windows (the intentional
  // last-slot/CF1 overlap, visible per cycle).
  std::sort(busy_reverse.begin(), busy_reverse.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  for (const Interval& cf : cf_spans) {
    Tick overlap = 0;
    for (const Interval& burst : busy_reverse) {
      if (burst.begin >= cf.end) break;
      overlap += OverlapTicks(cf, burst);
    }
    if (overlap == 0) continue;
    const int idx = CycleIndexAt(out.cycles, cf.begin);
    if (idx >= 0) out.cycles[static_cast<std::size_t>(idx)].cf_overlap += overlap;
  }

  // Tightest TX/RX spacing per node.  Commitments of one kind never overlap
  // each other, so after sorting by begin the closest cross-kind pair is
  // always adjacent.
  for (auto& [node, spans] : radio) {
    std::sort(spans.begin(), spans.end(), [](const RadioSpan& a, const RadioSpan& b) {
      return a.span.begin < b.span.begin;
    });
    Tick min_gap = std::numeric_limits<Tick>::max();
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      if (spans[i].is_tx == spans[i + 1].is_tx) continue;
      min_gap = std::min(min_gap,
                         std::max<Tick>(0, spans[i + 1].span.begin - spans[i].span.end));
    }
    if (min_gap != std::numeric_limits<Tick>::max()) out.min_tx_rx_gap[node] = min_gap;
  }

  for (const TimelineCycle& cycle : out.cycles) {
    out.forward_total.Accumulate(cycle.forward);
    out.reverse_total.Accumulate(cycle.reverse);
  }
  return out;
}

}  // namespace osumac::obs
