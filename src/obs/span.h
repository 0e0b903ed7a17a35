// Packet-lifecycle span reconstruction.
//
// Emitters (subscriber, base station, Cell) record kLifecycle events as a
// packet moves through its life: generated -> queued -> reservation sent ->
// grant received -> slot TX -> delivered/acked, with retry/erasure
// sub-stages and a terminal dropped stage.  This header turns a recorded
// EventTrace back into per-packet `Lifecycle` objects and reduces them into
// per-stage-transition latency breakdowns — the "where did the time go?"
// answer for any packet that missed its deadline.  WriteLifecycleReport is
// that answer in prose: the flight recorder's lifecycles.txt.
//
// Lifecycle ids (Event::a1) are constructed by DataLifecycleId /
// GpsLifecycleId in event.h; id 0 means "untraced" and is never emitted.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "obs/event_trace.h"

namespace osumac::obs {

/// One recorded stage of one packet's life.
struct LifecycleStageRecord {
  std::int64_t stage = 0;  ///< LifecycleStage
  Tick tick = 0;           ///< when the stage was recorded
  Interval span{0, 0};     ///< slot airtime for kStageSlotTx, else empty
  std::int64_t detail = 0; ///< the stage's a2 payload
  std::int32_t slot = -1;  ///< slot index, if any
};

/// The reconstructed life of one packet, ordered by recording time.
struct Lifecycle {
  std::int64_t id = 0;
  std::int64_t cls = 0;     ///< LifecycleClass
  std::int32_t node = -1;   ///< emitting subscriber (first stage that knew it)
  std::int32_t uid = -1;
  std::vector<LifecycleStageRecord> stages;

  bool Has(std::int64_t stage) const;
  /// True when the trace holds the packet's birth (ring buffers and
  /// attach-after-warmup can truncate the head of a life).
  bool HasBirth() const;
  /// True when the last recorded stage ends the lifecycle.
  bool Terminated() const;
  /// HasBirth() && Terminated(): the whole life is in the trace.
  bool Complete() const;
};

/// Groups a trace's kLifecycle events by id, preserving per-id recording
/// order.  Ids appear in order of their first event.
std::vector<Lifecycle> CollectLifecycles(const EventTrace& trace);

/// Per-stage-transition latency statistics over a set of lifecycles,
/// split by lifecycle class.
struct SpanBreakdown {
  /// (class, from stage, to stage) -> seconds between consecutive records.
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, RunningStats>
      transitions;
  std::int64_t complete = 0;        ///< lifecycles with birth + terminal stage
  std::int64_t truncated_head = 0;  ///< terminal stage seen, birth missing
  std::int64_t open = 0;            ///< no terminal stage in the trace

  void Write(std::ostream& out) const;
};
SpanBreakdown BreakDown(const std::vector<Lifecycle>& lifecycles);

/// The post-mortem of a trace window: the SpanBreakdown summary, one line
/// per dropped lifecycle with its stage chain, and one `BLOWN BUDGET` line
/// per GPS inter-delivery gap above the kGpsDeliveryGap budget and per GPS
/// report dropped after its slot TX (losing one report makes the gap
/// around it at least two cycles long, whether or not both ends of that
/// gap are in the window).
void WriteLifecycleReport(std::ostream& out, const EventTrace& trace);

}  // namespace osumac::obs
