// Half-duplex radio model for mobile subscribers.
//
// A mobile subscriber can transmit or receive but not both, and needs a
// 20 ms guard when switching between the two (Section 2.2).  The radio
// records every transmit and receive commitment and answers feasibility
// queries; the MAC scheduler is responsible for never *scheduling* a
// conflict, and this model is the ground truth that catches scheduler bugs:
// a reception that conflicts with a transmission is simply missed.
#pragma once

#include <deque>

#include "common/time.h"
#include "obs/event.h"
#include "phy/phy_params.h"

namespace osumac::phy {

/// Tracks TX/RX commitments of one half-duplex transceiver.
class HalfDuplexRadio {
 public:
  /// Streams every commitment as a radio_tx/radio_rx event attributed to
  /// `node` (pass null to detach).
  void SetEventSink(obs::EventSink* sink, int node) {
    sink_ = sink;
    node_ = node;
  }

  /// Records that the radio will transmit during `interval`.
  /// Precondition: CanTransmit(interval) (asserted in debug builds).
  void CommitTransmit(Interval interval);

  /// Records that the radio will actively receive during `interval`.
  void CommitReceive(Interval interval);

  /// True if transmitting during `interval` conflicts with no receive
  /// commitment, honouring the 20 ms switch guard on both sides.
  bool CanTransmit(Interval interval) const;

  /// True if receiving during `interval` conflicts with no transmit
  /// commitment, honouring the 20 ms switch guard on both sides.
  bool CanReceive(Interval interval) const;

  /// Discards commitments that ended more than a guard time before `now`
  /// (call once per cycle to bound memory).
  void Forget(Tick now);

  std::size_t pending_tx() const { return tx_.size(); }

  /// Commitment lists, for auditing (see analysis/protocol_auditor).
  const std::deque<Interval>& tx_commitments() const { return tx_; }
  const std::deque<Interval>& rx_commitments() const { return rx_; }

 private:
  static bool ConflictsWith(const std::deque<Interval>& set, Interval interval);

  std::deque<Interval> tx_;
  std::deque<Interval> rx_;
  obs::EventSink* sink_ = nullptr;
  int node_ = -1;
};

}  // namespace osumac::phy
