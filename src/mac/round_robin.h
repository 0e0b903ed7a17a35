// Round-robin slot scheduling with slot lumping (Section 3.5).
//
// The base station collects per-user demand (explicit reservations,
// piggybacked requests, contention data) and allocates data slots round-
// robin: one slot per user per round, starting from a pointer that rotates
// across cycles so long-term shares are fair (the paper's Fig. 11 reports a
// Jain index > 0.99).  After the per-user counts are fixed, the slots are
// "lumped": each user's slots are made contiguous so the subscriber does
// not repeatedly switch between transmit and receive within a cycle.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "mac/ids.h"

namespace osumac::mac {

/// One user's contiguous run in the resulting schedule.
struct SlotRun {
  UserId user = kNoUser;
  int first_slot = 0;  ///< index into the available-slot list
  int count = 0;
};

/// Round-robin allocator with a persistent rotation pointer.
class RoundRobinScheduler {
 public:
  /// Allocates `available_slots` slots among `demand` (uid -> wanted slots,
  /// entries with zero demand ignored).  Replaces the contents of `runs`
  /// (a buffer the caller owns and reuses) with per-user contiguous runs in
  /// schedule order; the sum of counts never exceeds available_slots and
  /// never exceeds a user's demand.
  ///
  /// Fairness: allocation proceeds in rounds of one slot per user, starting
  /// at the rotating pointer, so when demand exceeds capacity every user
  /// gets within one slot of every other user, and the starting user
  /// rotates every call.
  void Allocate(const std::map<UserId, int>& demand, int available_slots,
                std::vector<SlotRun>& runs);

  /// Rotation pointer (exposed for tests).
  std::uint32_t rotation() const { return rotation_; }

 private:
  std::uint32_t rotation_ = 0;
};

}  // namespace osumac::mac
