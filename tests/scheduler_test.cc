// Tests for the round-robin reverse scheduler with lumping and the
// constraint-aware forward scheduler (Section 3.5).
#include <map>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "mac/forward_scheduler.h"
#include "mac/round_robin.h"

namespace osumac::mac {
namespace {

/// One allocation into a fresh runs buffer.
std::vector<SlotRun> Allocate(RoundRobinScheduler& rr, const std::map<UserId, int>& demand,
                              int slots) {
  std::vector<SlotRun> runs;
  rr.Allocate(demand, slots, runs);
  return runs;
}

std::map<UserId, int> GrantedCounts(const std::vector<SlotRun>& runs) {
  std::map<UserId, int> counts;
  for (const SlotRun& r : runs) counts[r.user] += r.count;
  return counts;
}

TEST(RoundRobinTest, GrantsNeverExceedDemandOrCapacity) {
  RoundRobinScheduler rr;
  const std::map<UserId, int> demand = {{1, 3}, {2, 1}, {3, 10}};
  const auto runs = Allocate(rr, demand, 8);
  const auto counts = GrantedCounts(runs);
  int total = 0;
  for (const auto& [uid, c] : counts) {
    EXPECT_LE(c, demand.at(uid));
    total += c;
  }
  EXPECT_EQ(total, 8);
}

TEST(RoundRobinTest, UnderloadGrantsEverything) {
  RoundRobinScheduler rr;
  const std::map<UserId, int> demand = {{1, 2}, {2, 3}};
  const auto counts = GrantedCounts(Allocate(rr, demand, 9));
  EXPECT_EQ(counts.at(1), 2);
  EXPECT_EQ(counts.at(2), 3);
}

TEST(RoundRobinTest, OverloadSharesWithinOneSlot) {
  RoundRobinScheduler rr;
  std::map<UserId, int> demand;
  for (UserId u = 0; u < 5; ++u) demand[u] = 100;
  const auto counts = GrantedCounts(Allocate(rr, demand, 8));
  int min = 100, max = 0;
  for (const auto& [uid, c] : counts) {
    min = std::min(min, c);
    max = std::max(max, c);
  }
  EXPECT_LE(max - min, 1) << "round-robin fairness within a cycle";
}

TEST(RoundRobinTest, RunsAreLumpedAndContiguous) {
  RoundRobinScheduler rr;
  const std::map<UserId, int> demand = {{1, 3}, {2, 2}, {3, 3}};
  const auto runs = Allocate(rr, demand, 8);
  // Slots form one contiguous block from 0; each user appears exactly once
  // (its slots lumped together so it never switches TX/RX repeatedly).
  std::set<UserId> seen;
  int next_slot = 0;
  for (const SlotRun& r : runs) {
    EXPECT_TRUE(seen.insert(r.user).second) << "user split across runs";
    EXPECT_EQ(r.first_slot, next_slot);
    next_slot += r.count;
  }
  EXPECT_EQ(next_slot, 8);
}

TEST(RoundRobinTest, RotationIsFairAcrossCycles) {
  // With persistent overload, long-run shares must even out (Jain > 0.999)
  // even though each single cycle can favour the rotation head.
  RoundRobinScheduler rr;
  std::map<UserId, int> demand;
  for (UserId u = 0; u < 7; ++u) demand[u] = 5;
  std::map<UserId, std::int64_t> totals;
  for (int cycle = 0; cycle < 700; ++cycle) {
    for (const auto& [uid, c] : GrantedCounts(Allocate(rr, demand, 8))) totals[uid] += c;
  }
  std::vector<double> shares;
  for (const auto& [uid, c] : totals) shares.push_back(static_cast<double>(c));
  EXPECT_GT(JainFairnessIndex(shares), 0.999);
}

TEST(RoundRobinTest, AllocateReplacesTheRunsBuffer) {
  RoundRobinScheduler rr;
  std::vector<SlotRun> runs = {{7, 0, 3}, {8, 3, 2}};  // a previous cycle's runs
  rr.Allocate({{1, 2}}, 8, runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].user, 1);
  EXPECT_EQ(runs[0].count, 2);
  rr.Allocate({}, 8, runs);
  EXPECT_TRUE(runs.empty());
}

TEST(RoundRobinTest, EmptyDemand) {
  RoundRobinScheduler rr;
  EXPECT_TRUE(Allocate(rr, {}, 8).empty());
  EXPECT_TRUE(Allocate(rr, {{1, 0}}, 8).empty());
  EXPECT_TRUE(Allocate(rr, {{1, 5}}, 0).empty());
}

// --- forward scheduler -----------------------------------------------------------

ForwardScheduleInput BaseInput() {
  ForwardScheduleInput in;
  in.format = ReverseFormat::kFormat1;
  // Unit tests grant slot-0 eligibility to every user unless a test is
  // specifically about the eligibility rule.
  for (UserId u = 0; u < 20; ++u) in.slot0_eligible.insert(u);
  return in;
}

TEST(ForwardSchedulerTest, Cf2ListenerNeverGetsSlotZero) {
  ForwardScheduleInput in = BaseInput();
  in.cf2_listener = 5;
  in.cf2_listener_tx_tail_end = 11850;
  in.demand[5] = 40;  // wants everything
  RoundRobinScheduler rr;
  const auto schedule = BuildForwardSchedule(in, rr);
  EXPECT_EQ(schedule[0], kNoUser) << "slot 0 ends before CF2 does";
  for (int s = 1; s < kForwardDataSlots; ++s) EXPECT_EQ(schedule[static_cast<std::size_t>(s)], 5);
}

TEST(ForwardSchedulerTest, GpsUserSkipsConflictingEarlySlots) {
  // GPS slot 0 transmits at [14460, 18660); forward slot 0 [13500, 18000)
  // is within the 20 ms guard of that transmission.
  ForwardScheduleInput in = BaseInput();
  in.gps_schedule[0] = 7;
  in.demand[7] = 2;
  RoundRobinScheduler rr;
  const auto schedule = BuildForwardSchedule(in, rr);
  EXPECT_EQ(schedule[0], kNoUser);
  EXPECT_EQ(schedule[1], 7) << "slot 1 starts after the guard";
}

TEST(ForwardSchedulerTest, ReverseDataSlotsBlockNearbyForwardSlots) {
  ForwardScheduleInput in = BaseInput();
  in.reverse_schedule[0] = 9;  // format 1 data slot 0: [48060, 67440)
  in.demand[9] = kForwardDataSlots;
  RoundRobinScheduler rr;
  const auto schedule = BuildForwardSchedule(in, rr);
  const ReverseCycleLayout layout(in.format);
  const Interval tx = layout.DataSlot(0).Padded(phy::kHalfDuplexSwitchTicks);
  for (int s = 0; s < kForwardDataSlots; ++s) {
    const bool conflicted = ForwardCycleLayout::DataSlot(s).Overlaps(tx);
    if (conflicted) {
      EXPECT_EQ(schedule[static_cast<std::size_t>(s)], kNoUser) << "slot " << s;
    } else {
      EXPECT_EQ(schedule[static_cast<std::size_t>(s)], 9) << "slot " << s;
    }
  }
}

TEST(ForwardSchedulerTest, CompatibilityPredicateMatchesSchedule) {
  Rng rng(99);
  RoundRobinScheduler rr;
  for (int trial = 0; trial < 200; ++trial) {
    ForwardScheduleInput in;
    in.format = rng.Bernoulli(0.5) ? ReverseFormat::kFormat1 : ReverseFormat::kFormat2;
    const ReverseCycleLayout layout(in.format);
    for (int i = 0; i < layout.gps_slot_count(); ++i) {
      if (rng.Bernoulli(0.3)) in.gps_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i);
    }
    for (int i = 0; i < layout.data_slot_count(); ++i) {
      if (rng.Bernoulli(0.5)) {
        in.reverse_schedule[static_cast<std::size_t>(i)] =
            static_cast<UserId>(rng.UniformInt(8, 14));
      }
    }
    in.cf2_listener = static_cast<UserId>(rng.UniformInt(8, 14));
    in.cf2_listener_tx_tail_end = 11850;
    for (UserId u = 0; u < 15; ++u) {
      if (rng.Bernoulli(0.7)) in.slot0_eligible.insert(u);
    }
    for (UserId u = 0; u < 15; ++u) {
      if (rng.Bernoulli(0.6)) in.demand[u] = static_cast<int>(rng.UniformInt(1, 10));
    }
    const auto schedule = BuildForwardSchedule(in, rr);
    for (int s = 0; s < kForwardDataSlots; ++s) {
      const UserId u = schedule[static_cast<std::size_t>(s)];
      if (u != kNoUser) {
        EXPECT_TRUE(ForwardSlotCompatible(in, u, s))
            << "trial " << trial << " slot " << s << " user " << int{u};
      }
    }
  }
}

TEST(ForwardSchedulerTest, SlotZeroRequiresEligibility) {
  // Users that might have contended in the previous cycle's last slot may
  // be CF2 listeners; slot 0 goes only to explicitly eligible users.
  ForwardScheduleInput in;
  in.format = ReverseFormat::kFormat1;
  in.demand[4] = kForwardDataSlots;
  RoundRobinScheduler rr;
  auto schedule = BuildForwardSchedule(in, rr);
  EXPECT_EQ(schedule[0], kNoUser) << "no eligibility set: slot 0 idle";
  EXPECT_EQ(schedule[1], 4);

  in.slot0_eligible.insert(4);
  schedule = BuildForwardSchedule(in, rr);
  EXPECT_EQ(schedule[0], 4);
}

TEST(ForwardSchedulerTest, GrantsBoundedByDemand) {
  ForwardScheduleInput in = BaseInput();
  in.demand = {{1, 2}, {2, 5}, {3, 1}};
  RoundRobinScheduler rr;
  const auto schedule = BuildForwardSchedule(in, rr);
  std::map<UserId, int> counts;
  for (UserId u : schedule) {
    if (u != kNoUser) ++counts[u];
  }
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 5);
  EXPECT_EQ(counts[3], 1);
}

}  // namespace
}  // namespace osumac::mac
