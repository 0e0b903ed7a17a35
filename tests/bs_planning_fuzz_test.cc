// Property fuzz for base-station planning: hammer PlanCycle with random
// registrations, reservations, piggybacks, sign-offs and contention noise
// and check the schedule invariants every cycle.
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "mac/base_station.h"

namespace osumac::mac {
namespace {

phy::SlotReception Decoded(const InfoBlock& info) {
  phy::SlotReception r;
  r.outcome = phy::SlotOutcome::kDecoded;
  r.info = {{info.begin(), info.end()}};
  return r;
}

class PlanningFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanningFuzz, ScheduleInvariantsHoldUnderChaos) {
  Rng rng(GetParam());
  MacConfig config;
  BaseStation bs(config);
  std::uint16_t cycle = 0;
  std::set<UserId> gps_uids;
  Ein next_ein = 100;

  for (int step = 0; step < 400; ++step) {
    const ControlFields cf = bs.PlanCycle(cycle++);
    const ReverseCycleLayout layout(cf.Format());
    const int n_data = layout.data_slot_count();

    // --- invariant: designated contention slots unassigned ------------------
    for (int i = 0; i < std::min(bs.contention_slots(), n_data); ++i) {
      EXPECT_EQ(cf.reverse_schedule[static_cast<std::size_t>(i)], kNoUser)
          << "step " << step << " slot " << i;
    }

    // --- invariant: only registered users scheduled -------------------------
    const auto& registered = bs.registered_users();
    for (int i = 0; i < n_data; ++i) {
      const UserId u = cf.reverse_schedule[static_cast<std::size_t>(i)];
      if (u != kNoUser) {
        EXPECT_TRUE(registered.contains(u)) << "step " << step;
      }
    }
    for (int s = 0; s < kForwardDataSlots; ++s) {
      const UserId u = cf.forward_schedule[static_cast<std::size_t>(s)];
      if (u != kNoUser) {
        EXPECT_TRUE(registered.contains(u)) << "step " << step;
      }
    }

    // --- invariant: GPS users never hold the last data slot -----------------
    const UserId last_user =
        cf.reverse_schedule[static_cast<std::size_t>(layout.last_data_slot())];
    if (last_user != kNoUser) {
      EXPECT_FALSE(gps_uids.contains(last_user)) << "step " << step;
    }

    // --- invariant: per-user reverse slots are lumped (contiguous) ----------
    std::map<UserId, std::vector<int>> slots_of;
    for (int i = 0; i < n_data; ++i) {
      const UserId u = cf.reverse_schedule[static_cast<std::size_t>(i)];
      if (u != kNoUser) slots_of[u].push_back(i);
    }
    for (const auto& [u, slots] : slots_of) {
      for (std::size_t k = 1; k < slots.size(); ++k) {
        EXPECT_EQ(slots[k], slots[k - 1] + 1)
            << "step " << step << ": user " << int{u} << " slots not lumped";
      }
    }

    // --- invariant: forward slots honour the half-duplex guard --------------
    for (int s = 0; s < kForwardDataSlots; ++s) {
      const UserId u = cf.forward_schedule[static_cast<std::size_t>(s)];
      if (u == kNoUser) continue;
      EXPECT_NE(u, bs.cf2_listener()) << "slot " << s << " step " << step
                                      << (s == 0 ? " (CF2 listener on slot 0!)" : "");
      const Interval fwd =
          ForwardCycleLayout::DataSlot(s).Padded(phy::kHalfDuplexSwitchTicks);
      for (int i = 0; i < n_data; ++i) {
        if (cf.reverse_schedule[static_cast<std::size_t>(i)] == u) {
          EXPECT_FALSE(fwd.Overlaps(layout.DataSlot(i)))
              << "step " << step << " fwd " << s << " rev " << i;
        }
      }
      for (int i = 0; i < layout.gps_slot_count(); ++i) {
        if (cf.gps_schedule[static_cast<std::size_t>(i)] == u) {
          EXPECT_FALSE(fwd.Overlaps(layout.GpsSlot(i)))
              << "step " << step << " fwd " << s << " gps " << i;
        }
      }
    }

    // --- invariant: GPS schedule is a dense prefix --------------------------
    EXPECT_TRUE(bs.gps_manager().IsDensePrefix());

    // --- random protocol activity -------------------------------------------
    const int actions = static_cast<int>(rng.UniformInt(0, 4));
    for (int a = 0; a < actions; ++a) {
      const int slot = static_cast<int>(rng.UniformInt(0, n_data - 2));
      switch (rng.UniformInt(0, 5)) {
        case 0: {  // registration (sometimes GPS)
          RegistrationPacket reg;
          reg.ein = next_ein++;
          reg.wants_gps = rng.Bernoulli(0.3);
          bs.OnDataSlotResolved(slot, Decoded(SerializeRegistrationPacket(reg)));
          break;
        }
        case 1: {  // reservation from a random registered user
          if (registered.empty()) break;
          ReservationPacket res;
          res.src = registered.begin()->first;
          res.slots_requested = static_cast<std::uint8_t>(rng.UniformInt(1, 20));
          bs.OnDataSlotResolved(slot, Decoded(SerializeReservationPacket(res)));
          break;
        }
        case 2: {  // data with piggyback
          if (registered.empty()) break;
          DataPacket d;
          d.header.src = std::prev(registered.end())->first;
          d.header.more_slots = static_cast<std::uint8_t>(rng.UniformInt(0, 31));
          d.message_id = static_cast<std::uint32_t>(rng.Next());
          d.frag_count = 1;
          d.payload_bytes = static_cast<std::uint16_t>(rng.UniformInt(1, 44));
          bs.OnDataSlotResolved(slot, Decoded(SerializeDataPacket(d)));
          break;
        }
        case 3: {  // collision noise
          phy::SlotReception r;
          r.outcome = phy::SlotOutcome::kCollision;
          bs.OnDataSlotResolved(slot, r);
          break;
        }
        case 4: {  // abrupt sign-off of a random user
          if (registered.empty()) break;
          const UserId leaving = registered.begin()->first;
          gps_uids.erase(leaving);
          bs.SignOff(leaving);
          break;
        }
        case 5: {  // idle observation
          bs.OnDataSlotResolved(slot, phy::SlotReception{});
          break;
        }
      }
    }
    // Track which uids became GPS users via the next CF's schedule.
    bs.OnLastSlotOfPreviousCycle(phy::SlotReception{});
    (void)bs.SecondControlFields();
    for (int i = 0; i < kMaxGpsSlots; ++i) {
      const UserId u = bs.gps_manager().OwnerOf(i);
      if (u != kNoUser) gps_uids.insert(u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanningFuzz, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace osumac::mac
