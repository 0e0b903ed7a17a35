#include "mac/round_robin.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace osumac::mac {

void RoundRobinScheduler::Allocate(const std::map<UserId, int>& demand,
                                   int available_slots, std::vector<SlotRun>& runs) {
  runs.clear();
  // Per-user tables indexed by UserId, and the demanders in key order.
  std::array<int, kUserIdValues> wanted{};
  std::array<int, kUserIdValues> granted{};
  std::array<UserId, kUserIdValues> users{};
  int user_count = 0;
  for (const auto& [uid, want] : demand) {
    if (want <= 0) continue;
    OSUMAC_CHECK_LT(uid, kUserIdValues);
    wanted[uid] = want;
    users[static_cast<std::size_t>(user_count++)] = uid;
  }
  if (user_count == 0 || available_slots <= 0) {
    rotation_ += 1;  // keep rotating even on empty cycles
    return;
  }

  // Rotate the user order so the head position is fair across cycles.
  const auto start =
      static_cast<std::ptrdiff_t>(rotation_ % static_cast<std::uint32_t>(user_count));
  std::rotate(users.begin(), users.begin() + start, users.begin() + user_count);
  rotation_ += 1;

  // Rounds of one slot each until capacity or demand is exhausted.
  std::array<UserId, kUserIdValues> grant_order{};  // first-grant order, for lumping
  int granted_users = 0;
  int remaining = available_slots;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (int i = 0; i < user_count; ++i) {
      if (remaining == 0) break;
      const UserId uid = users[static_cast<std::size_t>(i)];
      if (granted[uid] < wanted[uid]) {
        if (granted[uid] == 0) grant_order[static_cast<std::size_t>(granted_users++)] = uid;
        ++granted[uid];
        --remaining;
        progress = true;
      }
    }
  }

  // Lumping: lay out each user's slots contiguously, in first-grant order.
  int next_slot = 0;
  for (int i = 0; i < granted_users; ++i) {
    SlotRun run;
    run.user = grant_order[static_cast<std::size_t>(i)];
    run.first_slot = next_slot;
    run.count = granted[run.user];
    next_slot += run.count;
    runs.push_back(run);
  }
}

}  // namespace osumac::mac
