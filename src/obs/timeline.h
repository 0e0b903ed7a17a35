// Airtime timeline reconstruction: folds a recorded event trace into
// per-channel occupancy intervals so the questions "where did the airtime
// go", "was the 20 ms switch guard honoured" and "which slot overlapped
// CF1" are answerable without re-running the simulation.
//
// The reconstructor consumes only event payloads (spans, outcome codes);
// it never consults the cycle-layout tables, so it doubles as an
// independent cross-check: its paper-definition utilization must agree
// with metrics::FigureMetrics::utilization to within floating-point
// rounding on any run whose trace did not drop events.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/event_trace.h"

namespace osumac::obs {

/// Airtime of one channel over one cycle (or a whole run), classified by
/// what occupied it.  Categories are disjoint; `idle` is the remainder of
/// the observed span.
struct ChannelOccupancy {
  Tick control = 0;     ///< control fields on the air (CF1 + CF2)
  Tick gps = 0;         ///< GPS slots that carried a transmission
  Tick data = 0;        ///< assigned data slots that decoded a packet
  Tick contention = 0;  ///< contention slots that decoded a packet
  Tick collision = 0;   ///< slots destroyed by collision
  Tick corrupted = 0;   ///< single-sender slots the channel corrupted
  Tick idle = 0;        ///< nothing on the air

  Tick busy() const { return control + gps + data + contention + collision + corrupted; }

  void Accumulate(const ChannelOccupancy& other) {
    control += other.control;
    gps += other.gps;
    data += other.data;
    contention += other.contention;
    collision += other.collision;
    corrupted += other.corrupted;
    idle += other.idle;
  }
};

/// One reconstructed notification cycle.
struct TimelineCycle {
  std::int64_t cycle = -1;
  Interval span{0, 0};  ///< cycle boundaries (from the cycle_start event)
  int format = 0;
  ChannelOccupancy forward;
  ChannelOccupancy reverse;
  std::int64_t capacity_bytes = 0;  ///< data bytes transportable this cycle
  std::int64_t payload_bytes = 0;   ///< unique data bytes decoded this cycle
  /// Airtime of reverse bursts overlapping this cycle's CF1/CF2 windows
  /// (the deliberate last-slot/CF1 overlap made visible).
  Tick cf_overlap = 0;
};

/// The reconstructed run.
struct Timeline {
  std::vector<TimelineCycle> cycles;
  ChannelOccupancy forward_total;
  ChannelOccupancy reverse_total;
  std::int64_t capacity_bytes = 0;
  std::int64_t payload_bytes = 0;
  /// Tightest observed gap between a node's TX and RX airtime (ticks); the
  /// half-duplex 20 ms guard demands >= 960 everywhere.
  std::map<int, Tick> min_tx_rx_gap;
  std::uint64_t events_consumed = 0;
  std::uint64_t events_dropped = 0;  ///< ring-buffer drops (reconstruction partial)

  /// Reverse-link utilization exactly as the paper defines it (unique data
  /// bytes carried / bytes transportable); matches
  /// metrics::FigureMetrics::utilization when the trace is complete.
  double PaperUtilization() const {
    return capacity_bytes > 0
               ? static_cast<double>(payload_bytes) / static_cast<double>(capacity_bytes)
               : 0.0;
  }

  /// Fraction of observed reverse airtime that was busy.
  double ReverseBusyFraction() const;
  /// Fraction of observed forward airtime that was busy.
  double ForwardBusyFraction() const;

  /// Smallest TX/RX gap across all nodes, or a large sentinel when no node
  /// had both kinds of commitment.
  Tick MinGuardObserved() const;
};

/// Reconstructs per-channel occupancy from a recorded trace.  Events from
/// before the first cycle_start record are ignored (they belong to a cycle
/// whose boundaries were not captured).
Timeline ReconstructTimeline(const EventTrace& trace);

}  // namespace osumac::obs
