// Unit tests driving the MobileSubscriber state machine directly with
// hand-built control fields.
#include <gtest/gtest.h>

#include "mac/subscriber.h"

namespace osumac::mac {
namespace {

class SubscriberTest : public ::testing::Test {
 protected:
  MacConfig config_;
  Tick cycle_start_ = 0;
  std::uint16_t cycle_ = 0;

  MobileSubscriber MakeSubscriber(bool gps = false) {
    return MobileSubscriber(0, 0x1234, gps, config_, Rng(7));
  }

  /// Advances the subscriber by one cycle and delivers `cf`.
  std::vector<PlannedBurst> Deliver(MobileSubscriber& sub, ControlFields cf) {
    cf.cycle = cycle_;
    sub.OnCycleStart(cycle_++, cycle_start_);
    std::vector<PlannedBurst> bursts;
    sub.OnControlFields(cf, cycle_start_, bursts);
    cycle_start_ += kCycleTicks;
    return bursts;
  }

  void Miss(MobileSubscriber& sub) {
    sub.OnCycleStart(cycle_++, cycle_start_);
    sub.OnControlFieldsMissed();
    cycle_start_ += kCycleTicks;
  }

  ControlFields GrantFor(MobileSubscriber& sub, UserId uid) {
    ControlFields cf;
    cf.grant_count = 1;
    cf.grants[0] = {sub.ein(), uid};
    return cf;
  }
};

TEST_F(SubscriberTest, RegistersAfterSync) {
  auto sub = MakeSubscriber();
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kOff);
  sub.PowerOn();
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kSyncing);

  const auto bursts = Deliver(sub, ControlFields{});
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kRegistering);
  ASSERT_EQ(bursts.size(), 1u) << "registration attempt in a contention slot";
  const auto parsed = ParseUplinkPacket(bursts[0].info);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, PacketKind::kRegistration);
  EXPECT_EQ(parsed->registration->ein, sub.ein());
}

TEST_F(SubscriberTest, AdoptsGrantedUserId) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 17));
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kActive);
  EXPECT_EQ(sub.user_id(), 17);
  ASSERT_EQ(sub.stats().registration_latency_cycles.size(), 1u);
  EXPECT_EQ(sub.stats().registration_latency_cycles.samples()[0], 1.0);
}

TEST_F(SubscriberTest, RegistrationPersistsUntilGrant) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  for (int attempt = 0; attempt < 5; ++attempt) {
    const auto bursts = Deliver(sub, ControlFields{});
    EXPECT_EQ(bursts.size(), 1u) << "persists every cycle, no backoff";
  }
  EXPECT_EQ(sub.stats().registration_attempts, 5);
  Deliver(sub, GrantFor(sub, 3));
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kActive);
}

TEST_F(SubscriberTest, GivesUpAfterMaxAttempts) {
  config_.max_registration_attempts = 4;
  auto sub = MakeSubscriber();
  sub.PowerOn();
  for (int i = 0; i < 6; ++i) Deliver(sub, ControlFields{});
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kGivenUp);
  EXPECT_EQ(sub.stats().registration_attempts, 4);
}

TEST_F(SubscriberTest, SendsDataInGrantedSlotsWithPiggyback) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));

  // 3 packets queued (132 bytes); grant 2 slots -> 2 packets + piggyback 1.
  ASSERT_TRUE(sub.EnqueueMessage(100, 3 * 44, cycle_start_));
  ControlFields cf;
  cf.reverse_schedule[2] = 5;
  cf.reverse_schedule[3] = 5;
  const auto bursts = Deliver(sub, cf);
  ASSERT_EQ(bursts.size(), 2u);
  for (const auto& b : bursts) {
    const auto parsed = ParseUplinkPacket(b.info);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->kind, PacketKind::kData);
    EXPECT_EQ(parsed->data->header.src, 5);
    EXPECT_EQ(parsed->data->header.more_slots, 1) << "remaining queue piggybacked";
  }
  EXPECT_EQ(sub.queued_packets(), 1);
}

TEST_F(SubscriberTest, AckedPacketsAreDeliveredUnackedRetransmitted) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ASSERT_TRUE(sub.EnqueueMessage(100, 2 * 44, cycle_start_));

  ControlFields grant_two;
  grant_two.reverse_schedule[2] = 5;
  grant_two.reverse_schedule[3] = 5;
  ASSERT_EQ(Deliver(sub, grant_two).size(), 2u);

  // ACK only slot 2; the slot-3 packet must be retransmitted.  With one
  // packet pending and no grant, the retransmission goes straight back out
  // through a contention slot in the same cycle.
  ControlFields acks;
  acks.reverse_acks[2] = 5;
  const auto retx = Deliver(sub, acks);
  EXPECT_EQ(sub.stats().packets_delivered, 1);
  EXPECT_EQ(sub.stats().packets_retransmitted, 1);
  ASSERT_EQ(retx.size(), 1u) << "immediate contention retransmission";
  const auto parsed_retx = ParseUplinkPacket(retx[0].info);
  ASSERT_TRUE(parsed_retx.has_value());
  EXPECT_EQ(parsed_retx->kind, PacketKind::kData);
  EXPECT_EQ(sub.stats().packet_delay_cycles.size(), 1u);
}

TEST_F(SubscriberTest, MissedControlFieldsRetransmitsInFlight) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ASSERT_TRUE(sub.EnqueueMessage(100, 44, cycle_start_));
  ControlFields grant;
  grant.reverse_schedule[2] = 5;
  ASSERT_EQ(Deliver(sub, grant).size(), 1u);
  EXPECT_EQ(sub.queued_packets(), 0);
  Miss(sub);
  EXPECT_EQ(sub.queued_packets(), 1) << "unknown outcome: assume lost";
  EXPECT_EQ(sub.stats().cf_missed, 1);
}

TEST_F(SubscriberTest, ContendsWhenIdleAndUsesReservationForBigQueue) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  // 5 packets queued, above the direct-data threshold -> reservation.
  ASSERT_TRUE(sub.EnqueueMessage(100, 5 * 44, cycle_start_));
  const auto bursts = Deliver(sub, ControlFields{});
  ASSERT_EQ(bursts.size(), 1u);
  const auto parsed = ParseUplinkPacket(bursts[0].info);
  ASSERT_EQ(parsed->kind, PacketKind::kReservation);
  EXPECT_EQ(parsed->reservation->slots_requested, 5);
  EXPECT_EQ(sub.stats().reservation_packets_sent, 1);
}

TEST_F(SubscriberTest, SinglePacketGoesDirectlyIntoContention) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ASSERT_TRUE(sub.EnqueueMessage(100, 30, cycle_start_));
  const auto bursts = Deliver(sub, ControlFields{});
  ASSERT_EQ(bursts.size(), 1u);
  const auto parsed = ParseUplinkPacket(bursts[0].info);
  ASSERT_EQ(parsed->kind, PacketKind::kData);
  EXPECT_EQ(sub.stats().contention_data_sent, 1);
}

TEST_F(SubscriberTest, BacksOffAfterUnackedContention) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ASSERT_TRUE(sub.EnqueueMessage(100, 30, cycle_start_));
  ASSERT_EQ(Deliver(sub, ControlFields{}).size(), 1u);  // data in contention
  // No ack: backoff (data backoff is at least one cycle).
  const auto retry = Deliver(sub, ControlFields{});
  EXPECT_TRUE(retry.empty()) << "must back off after losing contention";
  EXPECT_EQ(sub.queued_packets(), 1);
}

TEST_F(SubscriberTest, AckedReservationSetsDemandEstimateAndWaits) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ASSERT_TRUE(sub.EnqueueMessage(100, 5 * 44, cycle_start_));
  // Keep the last data slot out of play: its ACK would travel in CF2's
  // late-ack field instead of the per-slot array.
  ControlFields open;
  open.reverse_schedule[8] = 60;
  auto bursts = Deliver(sub, open);
  ASSERT_EQ(bursts.size(), 1u);
  const int slot = bursts[0].slot;
  ASSERT_NE(slot, 8);

  ControlFields ack;
  ack.reverse_acks[static_cast<std::size_t>(slot)] = 5;
  bursts = Deliver(sub, ack);
  EXPECT_TRUE(bursts.empty()) << "acked reservation: wait for grants, don't re-contend";
  ASSERT_EQ(sub.stats().reservation_latency_cycles.size(), 1u);
  EXPECT_EQ(sub.stats().reservation_latency_cycles.samples()[0], 1.0);
}

TEST_F(SubscriberTest, GpsUserFollowsGpsScheduleAndReassignment) {
  auto sub = MakeSubscriber(/*gps=*/true);
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  // Grant + GPS slot 4 announced.
  ControlFields cf = GrantFor(sub, 9);
  cf.gps_schedule[4] = 9;
  for (int i = 0; i < 4; ++i) cf.gps_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(20 + i);
  sub.QueueGpsReport(cycle_start_);
  auto bursts = Deliver(sub, cf);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_TRUE(bursts[0].is_gps_slot);
  EXPECT_EQ(bursts[0].slot, 4);
  EXPECT_EQ(sub.gps_slot(), 4);

  // Rule R3 re-assignment: the schedule moves it to slot 1.
  ControlFields moved;
  moved.gps_schedule[1] = 9;
  sub.QueueGpsReport(cycle_start_);
  bursts = Deliver(sub, moved);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].slot, 1);
  EXPECT_EQ(sub.gps_slot(), 1);
  EXPECT_EQ(sub.stats().gps_reports_sent, 2);
}

TEST_F(SubscriberTest, GpsReportNeverRetransmitted) {
  auto sub = MakeSubscriber(/*gps=*/true);
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  ControlFields cf = GrantFor(sub, 9);
  cf.gps_schedule[0] = 9;
  sub.QueueGpsReport(cycle_start_);
  ASSERT_EQ(Deliver(sub, cf).size(), 1u);
  // No new fix queued: next cycle transmits nothing (no retransmission of
  // the old report even though it was never acknowledged).
  ControlFields next;
  next.gps_schedule[0] = 9;
  EXPECT_TRUE(Deliver(sub, next).empty());
}

TEST_F(SubscriberTest, ListensToSecondCfAfterLastSlotTransmission) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ASSERT_TRUE(sub.EnqueueMessage(100, 44, cycle_start_));
  ControlFields cf;  // format 2: 9 data slots; grant the last one (index 8)
  cf.reverse_schedule[8] = 5;
  ASSERT_EQ(Deliver(sub, cf).size(), 1u);
  EXPECT_FALSE(sub.listens_second_cf()) << "flag applies to the NEXT cycle";
  sub.OnCycleStart(cycle_++, cycle_start_);
  EXPECT_TRUE(sub.listens_second_cf());
}

TEST_F(SubscriberTest, QueueOverflowDropsWholeMessage) {
  config_.subscriber_queue_packets = 4;
  auto sub = MakeSubscriber();
  sub.PowerOn();
  EXPECT_TRUE(sub.EnqueueMessage(1, 3 * 44, 0));
  EXPECT_FALSE(sub.EnqueueMessage(2, 3 * 44, 0)) << "would exceed 4 packets";
  EXPECT_EQ(sub.stats().messages_dropped, 1);
  EXPECT_EQ(sub.queued_packets(), 3);
}

TEST_F(SubscriberTest, ForwardReassemblyCompletesMessages) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  for (std::uint8_t i = 0; i < 3; ++i) {
    ForwardDataPacket p;
    p.dest = 5;
    p.message_id = 50;
    p.frag_index = i;
    p.frag_count = 3;
    p.payload_bytes = 44;
    sub.OnForwardPacket(p);
  }
  const auto done = sub.TakeCompletedForwardMessages();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 50u);
  EXPECT_EQ(sub.stats().forward_packets_received, 3);
}

TEST_F(SubscriberTest, ExpectsForwardSlotsFromSchedule) {
  auto sub = MakeSubscriber();
  sub.PowerOn();
  Deliver(sub, ControlFields{});
  Deliver(sub, GrantFor(sub, 5));
  ControlFields cf;
  cf.forward_schedule[10] = 5;
  cf.forward_schedule[11] = 5;
  cf.forward_schedule[12] = 30;  // someone else
  Deliver(sub, cf);
  EXPECT_TRUE(sub.ExpectsForwardSlot(10));
  EXPECT_TRUE(sub.ExpectsForwardSlot(11));
  EXPECT_FALSE(sub.ExpectsForwardSlot(12));
}

TEST_F(SubscriberTest, PagedWhileOffWakesAndRegisters) {
  auto sub = MakeSubscriber();
  ControlFields page;
  page.paged_count = 1;
  page.paging[0] = sub.ein();
  const auto bursts = Deliver(sub, page);
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kRegistering);
  EXPECT_EQ(bursts.size(), 1u);
}

TEST_F(SubscriberTest, NotPagedStaysOff) {
  auto sub = MakeSubscriber();
  ControlFields page;
  page.paged_count = 1;
  page.paging[0] = 0x9999;
  EXPECT_TRUE(Deliver(sub, page).empty());
  EXPECT_EQ(sub.state(), MobileSubscriber::State::kOff);
}

}  // namespace
}  // namespace osumac::mac
