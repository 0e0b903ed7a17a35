// Integration and property tests over the full cell: channel-error
// injection, GPS churn with rules R1-R3 live, registration storms,
// two-control-field behaviour, ablations, determinism, and conservation
// invariants.
#include <array>

#include <gtest/gtest.h>

#include "audit_util.h"
#include "mac/cell.h"
#include "metrics/experiment.h"
#include "traffic/workload.h"

namespace osumac {
namespace {

using mac::Cell;
using mac::CellConfig;
using mac::ChannelModelConfig;
using mac::MobileSubscriber;

std::vector<int> AddActiveDataUsers(Cell& cell, int count) {
  std::vector<int> nodes;
  for (int i = 0; i < count; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  return nodes;
}

// ---------------------------------------------------------------------------
// Conservation and consistency invariants
// ---------------------------------------------------------------------------

TEST(CellInvariantsTest, DeliveredNeverExceedsOfferedAndCountsAgree) {
  CellConfig config;
  config.seed = 21;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const auto nodes = AddActiveDataUsers(cell, 8);
  cell.RunCycles(8);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload w(
      cell, nodes, traffic::MeanInterarrivalTicks(0.7, 8, 9, sizes.MeanBytes()), sizes,
      Rng(1));
  cell.RunCycles(300);

  const auto& cm = cell.metrics();
  EXPECT_LE(cm.unique_payload_bytes, cm.offered_bytes);
  // Subscriber-side delivered bytes equal base-station unique payloads.
  std::int64_t sub_delivered = 0;
  for (int n : nodes) sub_delivered += cell.subscriber(n).stats().payload_bytes_delivered;
  // ACKed-at-subscriber can lag BS deliveries by the in-flight window only.
  EXPECT_NEAR(static_cast<double>(sub_delivered),
              static_cast<double>(cm.unique_payload_bytes),
              9 * 44.0 * 2);
  // Per-user shares sum to the total.
  std::int64_t share_sum = 0;
  for (const auto& [uid, bytes] : cm.per_user_bytes) share_sum += bytes;
  EXPECT_EQ(share_sum, cm.unique_payload_bytes);
}

TEST(CellInvariantsTest, DeterministicAcrossRuns) {
  auto run = [] {
    CellConfig config;
    config.seed = 77;
    Cell cell(config);
    test::ScopedAudit audit(cell);
    auto nodes = AddActiveDataUsers(cell, 6);
    for (int i = 0; i < 2; ++i) {
      cell.PowerOn(cell.AddSubscriber(true));
    }
    cell.RunCycles(6);
    const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
    traffic::PoissonUplinkWorkload w(
        cell, nodes, traffic::MeanInterarrivalTicks(0.6, 6, 9, sizes.MeanBytes()), sizes,
        Rng(2));
    cell.RunCycles(120);
    return std::tuple{cell.metrics().unique_payload_bytes,
                      cell.base_station().counters().collisions,
                      cell.base_station().counters().data_packets_received};
  };
  EXPECT_EQ(run(), run()) << "same seed must reproduce bit-for-bit";
}

TEST(CellInvariantsTest, NoForwardLossesOnPerfectChannel) {
  // The base station's constraint checking means a mobile never misses a
  // forward packet when the channel is clean: half-duplex conflicts would
  // be the only cause.
  CellConfig config;
  config.seed = 23;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const auto nodes = AddActiveDataUsers(cell, 6);
  for (int i = 0; i < 4; ++i) cell.PowerOn(cell.AddSubscriber(true));
  cell.RunCycles(8);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload up(
      cell, nodes, traffic::MeanInterarrivalTicks(0.8, 6, 8, sizes.MeanBytes()), sizes,
      Rng(3));
  traffic::PoissonDownlinkWorkload down(cell, nodes, 3 * mac::kCycleTicks,
                                        traffic::SizeDistribution::Fixed(200), Rng(4));
  cell.RunCycles(200);
  EXPECT_GT(cell.base_station().counters().forward_packets_sent, 100);
  EXPECT_EQ(cell.metrics().forward_packets_lost, 0)
      << "scheduler must never violate the half-duplex constraint";
}

// ---------------------------------------------------------------------------
// Channel-error injection
// ---------------------------------------------------------------------------

TEST(CellErrorInjectionTest, ArqRecoversFromUniformNoise) {
  CellConfig config;
  config.seed = 31;
  config.reverse.kind = ChannelModelConfig::Kind::kUniform;
  config.reverse.symbol_error_prob = 0.05;  // ~3.2 errors/codeword: correctable
  config.forward.kind = ChannelModelConfig::Kind::kUniform;
  config.forward.symbol_error_prob = 0.02;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const auto nodes = AddActiveDataUsers(cell, 5);
  cell.RunCycles(10);
  for (int n : nodes) cell.SendUplinkMessage(n, 200);
  cell.RunCycles(30);
  std::int64_t delivered = 0;
  for (int n : nodes) delivered += cell.subscriber(n).stats().packets_delivered;
  EXPECT_EQ(delivered, 5 * 5) << "200 bytes = 5 packets each, all recovered";
}

TEST(CellErrorInjectionTest, HarshNoiseCausesRetransmissionsButNoCorruption) {
  CellConfig config;
  config.seed = 32;
  config.reverse.kind = ChannelModelConfig::Kind::kUniform;
  config.reverse.symbol_error_prob = 0.13;  // mean ~8.3 errors: frequent failures
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const auto nodes = AddActiveDataUsers(cell, 4);
  cell.RunCycles(30);  // registration needs retries too
  int active = 0;
  for (int n : nodes) {
    active += cell.subscriber(n).state() == MobileSubscriber::State::kActive ? 1 : 0;
  }
  ASSERT_GT(active, 0) << "registration must eventually survive the noise";
  for (int n : nodes) cell.SendUplinkMessage(n, 120);
  cell.RunCycles(60);
  const auto& bs = cell.base_station().counters();
  EXPECT_GT(bs.decode_failures, 0) << "the noise must actually bite";
  std::int64_t retx = 0;
  for (int n : nodes) retx += cell.subscriber(n).stats().packets_retransmitted;
  EXPECT_GT(retx, 0);
  // Conservation: unique payload never exceeds what active users offered.
  EXPECT_LE(cell.metrics().unique_payload_bytes, 4 * 120);
}

TEST(CellErrorInjectionTest, GilbertElliottFadesDropGpsWithoutRetransmission) {
  CellConfig config;
  config.seed = 33;
  config.reverse.kind = ChannelModelConfig::Kind::kGilbertElliott;
  config.reverse.ge.p_good_to_bad = 0.01;
  config.reverse.ge.p_bad_to_good = 0.05;
  config.reverse.ge.error_prob_bad = 0.5;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  std::vector<int> buses;
  for (int i = 0; i < 4; ++i) {
    buses.push_back(cell.AddSubscriber(true));
    cell.PowerOn(buses.back());
  }
  cell.RunCycles(20);
  cell.ResetStats();
  cell.RunCycles(150);
  const auto& bs = cell.base_station().counters();
  EXPECT_GT(bs.gps_packets_failed, 0) << "fades must kill some reports";
  std::int64_t sent = 0;
  for (int n : buses) sent += cell.subscriber(n).stats().gps_reports_sent;
  EXPECT_EQ(bs.gps_packets_received + bs.gps_packets_failed, sent)
      << "every report is sent exactly once: no GPS retransmissions";
}

// ---------------------------------------------------------------------------
// GPS churn: rules R1-R3 live
// ---------------------------------------------------------------------------

TEST(CellGpsChurnTest, SlotConsolidationAndFormatSwitchLive) {
  CellConfig config;
  config.seed = 41;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  std::vector<int> buses;
  for (int i = 0; i < 6; ++i) {
    buses.push_back(cell.AddSubscriber(true));
    cell.PowerOn(buses.back());
  }
  cell.RunCycles(8);
  ASSERT_EQ(cell.base_station().gps_manager().active_count(), 6);
  ASSERT_EQ(cell.base_station().current_format(), mac::ReverseFormat::kFormat1);

  // Three buses sign off; the cycle must fuse GPS slots into a data slot.
  cell.SignOff(buses[1]);
  cell.SignOff(buses[3]);
  cell.SignOff(buses[4]);
  cell.RunCycles(3);
  EXPECT_EQ(cell.base_station().gps_manager().active_count(), 3);
  EXPECT_EQ(cell.base_station().current_format(), mac::ReverseFormat::kFormat2);
  EXPECT_TRUE(cell.base_station().gps_manager().IsDensePrefix());

  // The surviving buses keep reporting with the 4-second bound intact.
  cell.ResetStats();
  cell.RunCycles(30);
  for (int n : {buses[0], buses[2], buses[5]}) {
    const auto& st = cell.subscriber(n).stats();
    EXPECT_GE(st.gps_reports_sent, 29) << "bus " << n;
    EXPECT_LT(st.gps_access_delay_seconds.Max(), 4.0);
  }

  // A new bus joining flips the format back.
  const int newcomer = cell.AddSubscriber(true);
  cell.PowerOn(newcomer);
  cell.RunCycles(6);
  EXPECT_EQ(cell.base_station().current_format(), mac::ReverseFormat::kFormat1);
  EXPECT_EQ(cell.subscriber(newcomer).state(), MobileSubscriber::State::kActive);
}

TEST(CellGpsChurnTest, EightBusesWithDataTrafficKeepQoS) {
  CellConfig config;
  config.seed = 42;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  std::vector<int> buses;
  for (int i = 0; i < 8; ++i) {
    buses.push_back(cell.AddSubscriber(true));
    cell.PowerOn(buses.back());
  }
  const auto nodes = AddActiveDataUsers(cell, 10);
  cell.RunCycles(12);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload w(
      cell, nodes, traffic::MeanInterarrivalTicks(1.0, 10, 8, sizes.MeanBytes()), sizes,
      Rng(5));
  cell.ResetStats();
  cell.RunCycles(100);
  // Saturated data traffic must not touch the GPS slots: deterministic QoS.
  for (int n : buses) {
    const auto& st = cell.subscriber(n).stats();
    EXPECT_GE(st.gps_reports_sent, 99);
    EXPECT_LT(st.gps_access_delay_seconds.Max(), 4.0);
  }
  EXPECT_EQ(cell.base_station().counters().gps_packets_received, 8 * 100);
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

TEST(CellRegistrationTest, StormOfTwentyUsersAllRegister) {
  CellConfig config;
  config.seed = 51;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  std::vector<int> nodes;
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  cell.RunCycles(60);
  for (int n : nodes) {
    EXPECT_EQ(cell.subscriber(n).state(), MobileSubscriber::State::kActive) << n;
  }
  // Dynamic contention adjustment must have kicked in during the storm.
  EXPECT_GT(cell.base_station().counters().collisions, 0);
}

TEST(CellRegistrationTest, TricklingArrivalsMeetDesignTargets) {
  // Design requirement (Section 2.1): 80% of registrations approved within
  // 2 notification cycles, 99% within 10.  We register users one at a time
  // against a quiet cell — the design point for the requirement.
  CellConfig config;
  config.seed = 52;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  SampleSet latency;
  for (int i = 0; i < 40; ++i) {
    const int node = cell.AddSubscriber(false);
    cell.PowerOn(node);
    cell.RunCycles(4);
    ASSERT_EQ(cell.subscriber(node).state(), MobileSubscriber::State::kActive);
    latency.Add(cell.subscriber(node).stats().registration_latency_cycles.samples()[0]);
  }
  EXPECT_LE(latency.Quantile(0.80), 2.0);
  EXPECT_LE(latency.Quantile(0.99), 10.0);
}

TEST(CellRegistrationTest, PagingWakesInactiveUser) {
  CellConfig config;
  config.seed = 53;
  config.mac.inactive_listen_period_cycles = 3;  // shorten the test
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const int node = cell.AddSubscriber(false);  // never powered on
  cell.RunCycles(2);
  EXPECT_FALSE(cell.SendDownlinkMessage(node, 100)) << "unregistered: pages instead";
  cell.RunCycles(10);
  EXPECT_EQ(cell.subscriber(node).state(), MobileSubscriber::State::kActive)
      << "paged unit must wake up and register";
  EXPECT_TRUE(cell.SendDownlinkMessage(node, 100));
  cell.RunCycles(4);
  EXPECT_GT(cell.subscriber(node).stats().forward_packets_received, 0);
}

// ---------------------------------------------------------------------------
// Two control fields
// ---------------------------------------------------------------------------

TEST(CellTwoCfTest, LastSlotCarriesTrafficAndStaysConsistent) {
  CellConfig config;
  config.seed = 61;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const auto nodes = AddActiveDataUsers(cell, 8);
  cell.RunCycles(8);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload w(
      cell, nodes, traffic::MeanInterarrivalTicks(0.9, 8, 9, sizes.MeanBytes()), sizes,
      Rng(6));
  cell.ResetStats();
  cell.RunCycles(200);
  const auto& bs = cell.base_station().counters();
  EXPECT_GT(bs.last_slot_data_packets, 0) << "the second CF unlocks the last slot";
  const double gain = static_cast<double>(bs.last_slot_data_packets) /
                      static_cast<double>(bs.data_packets_received);
  EXPECT_GT(gain, 0.03);
  EXPECT_LT(gain, 0.20) << "paper reports 5-14%";
}

/// Counts the forward packets the base station plans: CF1's slots at the
/// cycle start, plus the CF1-idle slots CF2 hands its listener.
class ForwardPlanCounter final : public mac::CellObserver {
 public:
  static constexpr std::size_t kLastSlot = mac::kForwardDataSlots - 1;

  void OnCyclePlanned(const Cell&, const mac::ControlFields& cf1, std::int64_t, Tick) override {
    cf1_ = cf1.forward_schedule;
    last_slot_planned_ = cf1_[kLastSlot] != mac::kNoUser;
    for (const mac::UserId u : cf1_) planned += u != mac::kNoUser ? 1 : 0;
  }
  void OnControlFieldsDelivered(const Cell&, const mac::ControlFields& cf, bool second, Tick,
                                Tick) override {
    if (!second) return;
    for (std::size_t s = 0; s < cf.forward_schedule.size(); ++s) {
      if (cf.forward_schedule[s] == mac::kNoUser || cf1_[s] != mac::kNoUser) continue;
      ++planned;
      ++cf2_added;
      if (s == kLastSlot) {
        ++cf2_added_last_slot;
        last_slot_planned_ = true;
      }
    }
  }
  /// Packets planned for slots that have ended: the last cycle's slot 36
  /// ends on the next cycle's start tick, after the run stops.
  std::int64_t planned_and_ended() const { return planned - (last_slot_planned_ ? 1 : 0); }

  std::int64_t planned = 0;
  std::int64_t cf2_added = 0;
  std::int64_t cf2_added_last_slot = 0;

 private:
  std::array<mac::UserId, mac::kForwardDataSlots> cf1_{};
  bool last_slot_planned_ = false;
};

TEST(CellTwoCfTest, EveryPlannedForwardPacketIsReceivedOrCountedLost) {
  // Forward slots get an event only when they carry a packet, and CF2 adds
  // the events of the slots it assigns.  A packet whose event is missing
  // or fires too late (a CF2-added slot, or slot 36, which ends on the next
  // cycle's start tick) is neither received nor counted lost; the next
  // PlanCycle's CHECK stops the run on it.
  CellConfig config;
  config.seed = 63;
  config.mac.downlink_arq = true;
  config.forward.kind = ChannelModelConfig::Kind::kUniform;
  config.forward.symbol_error_prob = 0.08;  // some forward words fail to decode
  Cell cell(config);
  test::ScopedAudit audit(cell);
  ForwardPlanCounter counter;
  cell.AddObserver(&counter);
  const auto nodes = AddActiveDataUsers(cell, 4);
  cell.RunCycles(8);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload up(
      cell, nodes, traffic::MeanInterarrivalTicks(0.9, 4, 9, sizes.MeanBytes()), sizes,
      Rng(7));
  for (int c = 0; c < 200; ++c) {
    // Right after CF1, a 37-packet downlink message for the CF2 listener
    // is too late for CF1's schedule: CF2 hands it every compatible
    // CF1-idle slot, through slot 36.
    sim::Simulator& sim = cell.simulator();
    sim.RunUntil(sim.now() + 1 + mac::ForwardCycleLayout::ControlFields1().end);
    for (int n : nodes) {
      const mac::UserId uid = cell.subscriber(n).user_id();
      if (uid != mac::kNoUser && uid == cell.base_station().cf2_listener()) {
        cell.SendDownlinkMessage(n, mac::kForwardDataSlots * mac::kPacketPayloadBytes);
      }
    }
    cell.RunCycles(1);
  }

  std::int64_t received = 0;
  for (int n : nodes) received += cell.subscriber(n).stats().forward_packets_received;
  const std::int64_t lost = cell.metrics().forward_packets_lost;
  EXPECT_GT(counter.cf2_added, 0) << "no CF2 listener received a CF1-idle slot";
  EXPECT_GT(counter.cf2_added_last_slot, 0) << "CF2 never added slot 36";
  EXPECT_GT(lost, 0) << "the noisy forward channel lost nothing";
  EXPECT_EQ(cell.base_station().counters().forward_packets_sent,
            counter.planned_and_ended());
  EXPECT_EQ(received + lost, counter.planned_and_ended());
}

TEST(CellTwoCfTest, AblationDisablingSecondCfWastesTheLastSlot) {
  CellConfig config;
  config.seed = 62;
  config.mac.use_second_control_field = false;
  Cell cell(config);
  test::ScopedAudit audit(cell);
  const auto nodes = AddActiveDataUsers(cell, 8);
  cell.RunCycles(8);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload w(
      cell, nodes, traffic::MeanInterarrivalTicks(0.9, 8, 9, sizes.MeanBytes()), sizes,
      Rng(6));
  cell.ResetStats();
  cell.RunCycles(200);
  EXPECT_EQ(cell.base_station().counters().last_slot_data_packets, 0);
}

TEST(CellTwoCfTest, AblationStaticGpsSlotsWasteBandwidth) {
  // With 1 GPS bus: dynamic adjustment yields format 2 (9 data slots);
  // static always uses format 1 (8 data slots).  Under saturation the
  // dynamic cell must move strictly more data.
  auto run = [](bool dynamic) {
    CellConfig config;
    config.seed = 63;
    config.mac.dynamic_gps_slots = dynamic;
    Cell cell(config);
    test::ScopedAudit audit(cell);
    cell.PowerOn(cell.AddSubscriber(true));  // one bus
    std::vector<int> nodes = AddActiveDataUsers(cell, 10);
    cell.RunCycles(10);
    const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
    traffic::PoissonUplinkWorkload w(
        cell, nodes, traffic::MeanInterarrivalTicks(1.1, 10, 9, sizes.MeanBytes()),
        sizes, Rng(7));
    cell.ResetStats();
    cell.RunCycles(150);
    return cell.metrics().unique_payload_bytes;
  };
  const auto with_dynamic = run(true);
  const auto without = run(false);
  EXPECT_GT(static_cast<double>(with_dynamic), static_cast<double>(without) * 1.05)
      << "slot fusion must buy roughly one extra data slot per cycle";
}

}  // namespace
}  // namespace osumac
