// Unit tests driving the BaseStation directly (no Cell/PHY): registration,
// reservation/demand handling, ACKs, contention-slot adjustment, CF2.
#include <gtest/gtest.h>

#include "mac/base_station.h"

namespace osumac::mac {
namespace {

phy::SlotReception Decoded(const InfoBlock& info, int sender = 0) {
  phy::SlotReception r;
  r.outcome = phy::SlotOutcome::kDecoded;
  r.info = {{info.begin(), info.end()}};
  r.sender = sender;
  return r;
}

phy::SlotReception Collision() {
  phy::SlotReception r;
  r.outcome = phy::SlotOutcome::kCollision;
  return r;
}

phy::SlotReception Idle() { return {}; }

RegistrationPacket Reg(Ein ein, bool gps = false) {
  RegistrationPacket p;
  p.ein = ein;
  p.wants_gps = gps;
  return p;
}

class BaseStationTest : public ::testing::Test {
 protected:
  MacConfig config_;

  /// Registers `ein` via a contention-slot registration packet and returns
  /// the granted user ID (from the next cycle's control fields).
  UserId Register(BaseStation& bs, Ein ein, bool gps = false) {
    bs.OnDataSlotResolved(0, Decoded(SerializeRegistrationPacket(Reg(ein, gps))));
    const ControlFields cf = bs.PlanCycle(next_cycle_++);
    for (int i = 0; i < cf.grant_count; ++i) {
      if (cf.grants[static_cast<std::size_t>(i)].ein == ein) {
        return cf.grants[static_cast<std::size_t>(i)].user_id;
      }
    }
    ADD_FAILURE() << "no grant for EIN " << ein;
    return kNoUser;
  }

  std::uint16_t next_cycle_ = 0;
};

TEST_F(BaseStationTest, RegistrationGrantsUserIdInNextControlFields) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x1234);
  EXPECT_NE(uid, kNoUser);
  EXPECT_EQ(bs.registered_users().at(uid), 0x1234);
  EXPECT_EQ(bs.counters().registrations_approved, 1);
}

TEST_F(BaseStationTest, DuplicateRegistrationRegrantsSameId) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x1234);
  const UserId again = Register(bs, 0x1234);
  EXPECT_EQ(uid, again) << "idempotent grant when the announcement was lost";
  EXPECT_EQ(bs.counters().registrations_approved, 1);
}

TEST_F(BaseStationTest, GpsRegistrationAssignsGpsSlotAndFormat) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  std::vector<UserId> buses;
  for (int i = 0; i < 4; ++i) buses.push_back(Register(bs, static_cast<Ein>(100 + i), true));
  const ControlFields cf = bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(cf.ActiveGpsCount(), 4);
  EXPECT_EQ(cf.Format(), ReverseFormat::kFormat1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cf.gps_schedule[static_cast<std::size_t>(i)], buses[static_cast<std::size_t>(i)]);
}

TEST_F(BaseStationTest, NinthGpsRegistrationRejectedSilently) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  for (int i = 0; i < 8; ++i) Register(bs, static_cast<Ein>(200 + i), true);
  bs.OnDataSlotResolved(0, Decoded(SerializeRegistrationPacket(Reg(999, true))));
  const ControlFields cf = bs.PlanCycle(next_cycle_++);
  for (int i = 0; i < cf.grant_count; ++i) {
    EXPECT_NE(cf.grants[static_cast<std::size_t>(i)].ein, 999);
  }
  EXPECT_EQ(bs.counters().registrations_rejected, 1);
}

TEST_F(BaseStationTest, ReservationLeadsToGrantsAndAck) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);

  ReservationPacket res;
  res.src = uid;
  res.slots_requested = 3;
  bs.OnDataSlotResolved(1, Decoded(SerializeReservationPacket(res)));
  EXPECT_EQ(bs.demand().at(uid), 3);

  const ControlFields cf = bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(cf.reverse_acks[1], uid) << "reservation acked in slot position";
  int granted = 0;
  for (int i = 0; i < kMaxReverseDataSlots; ++i) {
    if (cf.reverse_schedule[static_cast<std::size_t>(i)] == uid) ++granted;
  }
  EXPECT_EQ(granted, 3);
  EXPECT_TRUE(bs.demand().empty()) << "grant consumed the demand";
}

TEST_F(BaseStationTest, ReservationDemandCappedAt32Slots) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);

  ReservationPacket res;
  res.src = uid;
  res.slots_requested = 255;
  bs.OnDataSlotResolved(1, Decoded(SerializeReservationPacket(res)));
  EXPECT_EQ(bs.demand().at(uid), 32);
}

TEST_F(BaseStationTest, ContentionSlotsStayUnassigned) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);
  ReservationPacket res;
  res.src = uid;
  res.slots_requested = 32;  // wants everything
  bs.OnDataSlotResolved(1, Decoded(SerializeReservationPacket(res)));
  const ControlFields cf = bs.PlanCycle(next_cycle_++);
  for (int i = 0; i < bs.contention_slots(); ++i) {
    EXPECT_EQ(cf.reverse_schedule[static_cast<std::size_t>(i)], kNoUser)
        << "leading contention slot " << i;
  }
}

TEST_F(BaseStationTest, PiggybackReplacesDemand) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);

  DataPacket d;
  d.header.src = uid;
  d.header.more_slots = 5;
  d.message_id = 1;
  d.frag_count = 6;
  d.payload_bytes = 44;
  bs.OnDataSlotResolved(2, Decoded(SerializeDataPacket(d)));
  EXPECT_EQ(bs.demand().at(uid), 5);

  d.header.more_slots = 0;
  d.header.frag_index = 1;
  bs.OnDataSlotResolved(3, Decoded(SerializeDataPacket(d)));
  EXPECT_FALSE(bs.demand().contains(uid)) << "zero piggyback clears demand";
}

TEST_F(BaseStationTest, DuplicateFragmentsDetected) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);
  DataPacket d;
  d.header.src = uid;
  d.message_id = 7;
  d.frag_count = 1;
  d.payload_bytes = 20;
  bs.OnDataSlotResolved(2, Decoded(SerializeDataPacket(d)));
  bs.OnDataSlotResolved(3, Decoded(SerializeDataPacket(d)));
  const std::vector<UplinkDelivery>& deliveries = bs.deliveries();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_FALSE(deliveries[0].duplicate);
  EXPECT_TRUE(deliveries[1].duplicate);
  EXPECT_EQ(bs.counters().duplicate_packets, 1);
  EXPECT_EQ(bs.counters().payload_bytes_received, 20);
}

TEST_F(BaseStationTest, UnknownUserPacketsIgnored) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  DataPacket d;
  d.header.src = 30;  // never registered
  d.message_id = 1;
  d.frag_count = 1;
  d.payload_bytes = 10;
  bs.OnDataSlotResolved(2, Decoded(SerializeDataPacket(d)));
  EXPECT_TRUE(bs.deliveries().empty());
  EXPECT_EQ(bs.counters().data_packets_received, 0);
}

TEST_F(BaseStationTest, DynamicContentionSlotAdjustment) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(bs.contention_slots(), config_.min_contention_slots);
  // A cycle with a collision raises the count...
  bs.OnDataSlotResolved(0, Collision());
  bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(bs.contention_slots(), config_.min_contention_slots + 1);
  // ... capped at the maximum ...
  for (int i = 0; i < 5; ++i) {
    bs.OnDataSlotResolved(0, Collision());
    bs.PlanCycle(next_cycle_++);
  }
  EXPECT_EQ(bs.contention_slots(), config_.max_contention_slots);
  // ... and all-idle cycles shrink it back to the floor.
  for (int i = 0; i < 5; ++i) {
    for (int s = 0; s < bs.contention_slots(); ++s) bs.OnDataSlotResolved(s, Idle());
    bs.PlanCycle(next_cycle_++);
  }
  EXPECT_EQ(bs.contention_slots(), config_.min_contention_slots);
}

TEST_F(BaseStationTest, StaticContentionConfigDisablesAdjustment) {
  config_.dynamic_contention_slots = false;
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  bs.OnDataSlotResolved(0, Collision());
  bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(bs.contention_slots(), config_.min_contention_slots);
}

TEST_F(BaseStationTest, LastSlotAckTravelsInSecondControlFields) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);

  // Give the user enough demand to receive the last slot.
  ReservationPacket res;
  res.src = uid;
  res.slots_requested = 32;
  bs.OnDataSlotResolved(1, Decoded(SerializeReservationPacket(res)));
  ControlFields cf = bs.PlanCycle(next_cycle_++);
  const ReverseCycleLayout layout(cf.Format());
  ASSERT_EQ(cf.reverse_schedule[static_cast<std::size_t>(layout.last_data_slot())], uid);

  // Next cycle: the last slot's packet resolves after CF1.
  cf = bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(bs.cf2_listener(), uid);
  DataPacket d;
  d.header.src = uid;
  d.message_id = 9;
  d.frag_count = 1;
  d.payload_bytes = 44;
  bs.OnLastSlotOfPreviousCycle(Decoded(SerializeDataPacket(d)));
  const ControlFields cf2 = bs.SecondControlFields();
  EXPECT_TRUE(cf2.is_second_set);
  EXPECT_EQ(cf2.late_ack, uid);
  EXPECT_EQ(bs.counters().last_slot_data_packets, 1);
}

TEST_F(BaseStationTest, Cf2AssignsIdleForwardSlotsToListener) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);
  ReservationPacket res;
  res.src = uid;
  res.slots_requested = 32;
  bs.OnDataSlotResolved(1, Decoded(SerializeReservationPacket(res)));
  bs.PlanCycle(next_cycle_++);  // uid holds the last slot now

  bs.EnqueueDownlink(uid, 500, 44 * 3);  // 3 packets queued mid-cycle...
  const ControlFields cf1 = bs.PlanCycle(next_cycle_++);
  bs.OnLastSlotOfPreviousCycle(Idle());
  const ControlFields cf2 = bs.SecondControlFields();
  int cf1_slots = 0, cf2_slots = 0;
  for (int s = 0; s < kForwardDataSlots; ++s) {
    if (cf1.forward_schedule[static_cast<std::size_t>(s)] == uid) ++cf1_slots;
    if (cf2.forward_schedule[static_cast<std::size_t>(s)] == uid) ++cf2_slots;
  }
  EXPECT_GE(cf2_slots, cf1_slots);
  EXPECT_EQ(cf2.forward_schedule[0], kNoUser) << "slot 0 never for the CF2 listener";
}

TEST_F(BaseStationTest, SignOffReleasesEverything) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId gps_uid = Register(bs, 0x100, true);
  const UserId data_uid = Register(bs, 0x200);
  EXPECT_EQ(bs.gps_manager().active_count(), 1);
  bs.SignOff(gps_uid);
  bs.SignOff(data_uid);
  EXPECT_EQ(bs.gps_manager().active_count(), 0);
  EXPECT_TRUE(bs.registered_users().empty());
  // The freed IDs are reusable.
  const UserId reused = Register(bs, 0x300);
  EXPECT_EQ(reused, std::min(gps_uid, data_uid));
}

TEST_F(BaseStationTest, PagingAnnouncedUntilRegistration) {
  BaseStation bs(config_);
  bs.Page(0x777);
  ControlFields cf = bs.PlanCycle(next_cycle_++);
  ASSERT_EQ(cf.paged_count, 1);
  EXPECT_EQ(cf.paging[0], 0x777);
  Register(bs, 0x777);
  cf = bs.PlanCycle(next_cycle_++);
  EXPECT_EQ(cf.paged_count, 0) << "page cleared once registered";
}

TEST_F(BaseStationTest, DownlinkFragmentationAndSlotPackets) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);
  ASSERT_TRUE(bs.EnqueueDownlink(uid, 11, 100));  // 100 bytes -> 3 packets
  const ControlFields cf = bs.PlanCycle(next_cycle_++);
  int slots = 0;
  int bytes = 0;
  for (int s = 0; s < kForwardDataSlots; ++s) {
    if (cf.forward_schedule[static_cast<std::size_t>(s)] != uid) continue;
    ++slots;
    const auto pkt = bs.DownlinkPacketForSlot(s);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->dest, uid);
    EXPECT_EQ(pkt->frag_count, 3);
    bytes += pkt->payload_bytes;
  }
  EXPECT_EQ(slots, 3);
  EXPECT_EQ(bytes, 100);
}

TEST_F(BaseStationTest, DownlinkQueueHolds256PacketsPerUser) {
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);
  for (std::uint32_t m = 0; m < 256; ++m) {
    ASSERT_TRUE(bs.EnqueueDownlink(uid, m, kPacketPayloadBytes)) << "message " << m;
  }
  EXPECT_EQ(bs.counters().downlink_dropped, 0);
  EXPECT_FALSE(bs.EnqueueDownlink(uid, 256, kPacketPayloadBytes));
  EXPECT_EQ(bs.counters().downlink_dropped, 1);
}

TEST_F(BaseStationTest, DownlinkToUnknownUserFails) {
  BaseStation bs(config_);
  EXPECT_FALSE(bs.EnqueueDownlink(12, 1, 100));
}

TEST_F(BaseStationTest, WithoutSecondControlFieldLastSlotNeverAssigned) {
  config_.use_second_control_field = false;
  BaseStation bs(config_);
  bs.PlanCycle(next_cycle_++);
  const UserId uid = Register(bs, 0x42);
  ReservationPacket res;
  res.src = uid;
  res.slots_requested = 32;
  bs.OnDataSlotResolved(1, Decoded(SerializeReservationPacket(res)));
  const ControlFields cf = bs.PlanCycle(next_cycle_++);
  const ReverseCycleLayout layout(cf.Format());
  EXPECT_EQ(cf.reverse_schedule[static_cast<std::size_t>(layout.last_data_slot())], kNoUser)
      << "ablation: the rejected design wastes the last slot";
}

}  // namespace
}  // namespace osumac::mac
