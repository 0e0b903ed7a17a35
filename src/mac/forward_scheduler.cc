#include "mac/forward_scheduler.h"

#include <algorithm>
#include <vector>

#include "phy/phy_params.h"

namespace osumac::mac {

bool ForwardSlotCompatible(const ForwardScheduleInput& in, UserId user, int slot) {
  if (user == kNoUser) return false;
  // (iii) The CF2 listener learns its forward schedule only at CF2's end;
  // slot 0 is over by then.  The same applies to anyone who *might* have
  // contended in the previous cycle's last slot, so slot 0 is restricted
  // to the explicitly eligible set.
  if (slot == 0 && (user == in.cf2_listener || !in.slot0_eligible.contains(user))) {
    return false;
  }

  // (i) + (ii): no reverse transmission of `user` this cycle may come
  // within the switch guard of the forward slot.
  const Interval padded =
      ForwardCycleLayout::DataSlot(slot).Padded(phy::kHalfDuplexSwitchTicks);
  const ReverseCycleLayout layout(in.format);
  for (int i = 0; i < layout.gps_slot_count(); ++i) {
    if (in.gps_schedule[static_cast<std::size_t>(i)] == user &&
        padded.Overlaps(layout.GpsSlot(i))) {
      return false;
    }
  }
  for (int i = 0; i < layout.data_slot_count(); ++i) {
    if (in.reverse_schedule[static_cast<std::size_t>(i)] == user &&
        padded.Overlaps(layout.DataSlot(i))) {
      return false;
    }
  }
  // The CF2 listener's transmission from the previous cycle may still run.
  return !(user == in.cf2_listener && in.cf2_listener_tx_tail_end > 0 &&
           padded.Overlaps(Interval{0, in.cf2_listener_tx_tail_end}));
}

std::array<UserId, kForwardDataSlots> BuildForwardSchedule(const ForwardScheduleInput& in,
                                                           RoundRobinScheduler& rr) {
  std::array<UserId, kForwardDataSlots> schedule;
  schedule.fill(kNoUser);

  // Fair per-user slot counts from the round-robin core, over the total
  // number of forward slots.  Compatibility may reduce what a user can
  // actually take; leftover capacity is re-offered in extra passes.
  std::map<UserId, int> remaining = in.demand;
  for (auto it = remaining.begin(); it != remaining.end();) {
    it = it->second <= 0 ? remaining.erase(it) : std::next(it);
  }

  int free_slots = kForwardDataSlots;
  bool progress = true;
  std::vector<SlotRun> runs;
  while (free_slots > 0 && progress && !remaining.empty()) {
    progress = false;
    rr.Allocate(remaining, free_slots, runs);
    for (const SlotRun& run : runs) {
      int granted = 0;
      for (int s = 0; s < kForwardDataSlots && granted < run.count; ++s) {
        if (schedule[static_cast<std::size_t>(s)] == kNoUser &&
            ForwardSlotCompatible(in, run.user, s)) {
          schedule[static_cast<std::size_t>(s)] = run.user;
          ++granted;
          --free_slots;
          progress = true;
        }
      }
      remaining[run.user] -= granted;
      if (remaining[run.user] <= 0) remaining.erase(run.user);
    }
    // If a full pass granted nothing (all remaining users incompatible with
    // all free slots), stop.
  }
  return schedule;
}

}  // namespace osumac::mac
