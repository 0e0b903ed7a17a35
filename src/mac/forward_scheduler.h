// Forward-channel slot scheduling under the half-duplex and two-control-
// field constraints (Sections 3.4 and 3.5).
//
// After the reverse schedule for a cycle is fixed, forward data slots are
// allocated round-robin subject to:
//   (i)   a subscriber is never scheduled to receive while it transmits;
//   (ii)  a 20 ms guard separates any of its receptions from its
//         transmissions (both directions);
//   (iii) the subscriber listening to the second control fields cannot be
//         given forward data slot 0, which ends before CF2 does — it would
//         not yet know the slot was addressed to it.
// Constraint (iii) is the paper's "the base station must not assign the
// first slot on the forward channel to the user which listens to the second
// set of control fields"; constraints (i)/(ii) are enforced by interval
// arithmetic against every reverse transmission of the candidate user.
#pragma once

#include <array>
#include <map>

#include "common/time.h"
#include "mac/cycle_layout.h"
#include "mac/ids.h"
#include "mac/round_robin.h"

namespace osumac::mac {

/// Inputs to forward-slot allocation for one cycle.
struct ForwardScheduleInput {
  /// Downlink demand: packets queued per user.
  std::map<UserId, int> demand;
  /// Reverse data-slot schedule already fixed for this cycle.
  std::array<UserId, kMaxReverseDataSlots> reverse_schedule{};
  ReverseFormat format = ReverseFormat::kFormat2;
  /// GPS slot owners this cycle.
  std::array<UserId, kMaxGpsSlots> gps_schedule{};
  /// The user listening to CF2 this cycle (last reverse data slot user of
  /// the previous cycle), kNoUser if none.
  UserId cf2_listener = kNoUser;
  /// Users eligible for forward data slot 0.  Any subscriber that *might*
  /// have contended in the previous cycle's last reverse data slot would
  /// listen to CF2 this cycle and could not learn of a slot-0 assignment
  /// in time; the base station therefore only gives slot 0 to users it
  /// granted reverse slots last cycle (who never contend) or GPS users
  /// (who never use the last data slot).
  UserMask slot0_eligible;
  /// End (ticks, relative to this cycle's start) of the CF2 listener's
  /// still-running transmission from the previous cycle (0 if none).
  Tick cf2_listener_tx_tail_end = 0;

  ForwardScheduleInput() {
    reverse_schedule.fill(kNoUser);
    gps_schedule.fill(kNoUser);
  }
};

/// True if forward slot `slot` may be assigned to `user` under constraints
/// (i)-(iii).  Exposed for tests and for the CF2 patch-up pass.
bool ForwardSlotCompatible(const ForwardScheduleInput& in, UserId user, int slot);

/// Builds the forward schedule: one slot per demanding user per round
/// (rotating via `rr`), skipping incompatible slots.  Entries left kNoUser
/// are idle.  The number of slots granted to a user never exceeds its
/// demand.
std::array<UserId, kForwardDataSlots> BuildForwardSchedule(const ForwardScheduleInput& in,
                                                           RoundRobinScheduler& rr);

}  // namespace osumac::mac
