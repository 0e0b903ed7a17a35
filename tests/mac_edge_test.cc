// Edge-case tests for protocol paths not covered by the main suites:
// grant-queue overflow, the 63-user ID cap, last-slot contention, CF2
// loss, format switches under load, re-registration after giving up,
// self-addressed routing and long-run sequence wrap.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "fec/reed_solomon.h"
#include "mac/cell.h"
#include "mac/control_fields.h"
#include "phy/error_model.h"
#include "traffic/workload.h"

namespace osumac {
namespace {

using mac::Cell;
using mac::CellConfig;
using mac::ChannelModelConfig;
using mac::MobileSubscriber;

/// Forward error model that adds a fixed nonzero codeword to every received
/// control-field word, alternating between the two blocks of a set.  RS is
/// linear, so the sum is again a valid codeword: it decodes cleanly, with
/// its information bytes XORed by `delta` -- an RS miscorrection.
class MiscorrectingModel final : public phy::SymbolErrorModel {
 public:
  explicit MiscorrectingModel(const std::array<mac::InfoBlock, 2>& delta) {
    for (std::size_t b = 0; b < 2; ++b) {
      delta_cw_[b] = fec::ReedSolomon::Osu6448().Encode(delta[b]);
    }
  }
  int Corrupt(std::span<fec::GfElem> codeword) override {
    const std::vector<fec::GfElem>& d = delta_cw_[calls_++ % 2];
    int hits = 0;
    for (std::size_t i = 0; i < codeword.size(); ++i) {
      codeword[i] ^= d[i];
      if (d[i] != 0) ++hits;
    }
    return hits;
  }

 private:
  std::array<std::vector<fec::GfElem>, 2> delta_cw_;
  std::size_t calls_ = 0;
};

TEST(MacEdgeTest, GrantQueueOverflowSpreadsAcrossCycles) {
  // Many simultaneous registrations: only two grants fit per control-field
  // set, so approvals trickle out over several cycles — but everyone gets
  // one eventually (persistence re-requests cover lost announcements).
  CellConfig config;
  config.seed = 601;
  Cell cell(config);
  std::vector<int> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  cell.RunCycles(25);
  for (int node : nodes) {
    EXPECT_EQ(cell.subscriber(node).state(), MobileSubscriber::State::kActive) << node;
  }
}

TEST(MacEdgeTest, UserIdSpaceCapEnforced) {
  // 6-bit IDs with one sentinel: at most 63 simultaneously active users.
  // Units arrive in small batches (simultaneous mass arrival would livelock
  // the persistent contention before IDs even run out).
  CellConfig config;
  config.seed = 602;
  config.mac.max_registration_attempts = 12;
  Cell cell(config);
  std::vector<int> nodes;
  for (int i = 0; i < 66; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
    if (i % 3 == 2) cell.RunCycles(3);
  }
  cell.RunCycles(40);
  int active = 0, given_up = 0;
  for (int node : nodes) {
    const auto state = cell.subscriber(node).state();
    if (state == MobileSubscriber::State::kActive) ++active;
    if (state == MobileSubscriber::State::kGivenUp) ++given_up;
  }
  EXPECT_EQ(active, 63) << "exactly the ID space fills";
  EXPECT_EQ(given_up, 3) << "the surplus gives up after its attempt budget";
  // Decoded registrations are approved (new), re-granted (duplicate from a
  // user whose grant announcement it missed), or rejected (cell full).
  EXPECT_EQ(cell.base_station().counters().registrations_approved, 63);
  EXPECT_GE(cell.base_station().counters().registrations_rejected, 3)
      << "each surplus attempt is rejected";

  // Capacity churn: one active user leaves, one straggler can then join.
  cell.SignOff(nodes[0]);
  const int late = cell.AddSubscriber(false);
  cell.PowerOn(late);
  cell.RunCycles(10);
  EXPECT_EQ(cell.subscriber(late).state(), MobileSubscriber::State::kActive);
}

TEST(MacEdgeTest, ReservationInLastSlotUsesLateAck) {
  // Force the contention attempt into the last data slot by assigning all
  // other slots; the reservation's ACK then travels in CF2's late-ack
  // field and the subscriber (which listened to CF2) still learns it.
  CellConfig config;
  config.seed = 603;
  Cell cell(config);
  const int busy = cell.AddSubscriber(false);
  const int late = cell.AddSubscriber(false);
  cell.PowerOn(busy);
  cell.PowerOn(late);
  cell.RunCycles(5);
  // `busy` saturates demand so the schedule leaves only the leading
  // contention slot(s) and occasionally the last slot free for `late`.
  for (int i = 0; i < 4; ++i) cell.SendUplinkMessage(busy, 500);
  cell.RunCycles(2);
  for (int i = 0; i < 6; ++i) cell.SendUplinkMessage(late, 500);
  cell.RunCycles(30);
  // Both users' traffic fully delivered despite the last-slot dance.
  EXPECT_EQ(cell.subscriber(busy).stats().packets_delivered, 4 * 12);
  EXPECT_EQ(cell.subscriber(late).stats().packets_delivered, 6 * 12);
  EXPECT_GT(cell.base_station().counters().last_slot_data_packets, 0);
}

TEST(MacEdgeTest, MiscorrectedControlFieldsGetTheirOwnParse) {
  // The cell parses the transmitted control fields once per delivery and
  // shares that parse with every receiver that decoded the same bytes.  A
  // receiver whose word miscorrects must see its own (garbage) bytes: here
  // the garbage pages a powered-off unit that nobody paged.
  CellConfig config;
  config.seed = 607;
  Cell cell(config);
  const int listener = cell.AddNode(false);  // fills the shared parse first
  const int victim = cell.AddSubscriber(false);
  const int bystander = cell.AddSubscriber(false);

  mac::ControlFields paged;
  paged.paged_count = 1;
  paged.paging[0] = cell.subscriber(victim).ein();
  const std::array<mac::InfoBlock, 2> clean_blocks =
      mac::SerializeControlFields(mac::ControlFields{});
  std::array<mac::InfoBlock, 2> delta = mac::SerializeControlFields(paged);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < delta[b].size(); ++i) delta[b][i] ^= clean_blocks[b][i];
  }
  cell.SetForwardModel(victim, std::make_unique<MiscorrectingModel>(delta));

  // Long enough for both powered-off units to reach a paging window.
  cell.RunCycles(2 * config.mac.inactive_listen_period_cycles);
  EXPECT_EQ(cell.subscriber(listener).state(), MobileSubscriber::State::kActive);
  EXPECT_EQ(cell.subscriber(bystander).state(), MobileSubscriber::State::kOff)
      << "the transmitted control fields page nobody";
  EXPECT_NE(cell.subscriber(victim).state(), MobileSubscriber::State::kOff)
      << "the victim acted on its own miscorrected parse";
  EXPECT_EQ(cell.subscriber(victim).stats().cf_missed, 0)
      << "a miscorrection decodes cleanly: it is not a missed CF";
}

TEST(MacEdgeTest, Cf2LossIsRecoverable) {
  // A noisy forward channel sometimes kills CF2 for the last-slot user;
  // the conservative retransmit path must keep everything flowing with no
  // lost payload.
  CellConfig config;
  config.seed = 604;
  config.forward.kind = ChannelModelConfig::Kind::kUniform;
  config.forward.symbol_error_prob = 0.06;
  Cell cell(config);
  std::vector<int> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  cell.RunCycles(12);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload w(
      cell, nodes, traffic::MeanInterarrivalTicks(0.8, 6, 9, sizes.MeanBytes()), sizes,
      Rng(5));
  cell.RunCycles(150);
  std::int64_t cf_missed = 0;
  for (int n : nodes) cf_missed += cell.subscriber(n).stats().cf_missed;
  EXPECT_GT(cf_missed, 0) << "the noise must actually hit some control fields";
  EXPECT_LE(cell.metrics().unique_payload_bytes, cell.metrics().offered_bytes);
  EXPECT_GT(cell.metrics().unique_payload_bytes, 0);
  // Duplicates happen (lost ACKs force retransmission) but are filtered.
  EXPECT_GE(cell.base_station().counters().duplicate_packets, 0);
}

TEST(MacEdgeTest, FormatSwitchUnderLoadLosesNothing) {
  // Buses join and leave while data traffic runs: the reverse cycle flips
  // between formats 1 and 2 repeatedly; data continuity and the schedules
  // must survive every flip.
  CellConfig config;
  config.seed = 605;
  Cell cell(config);
  std::vector<int> buses;
  for (int i = 0; i < 5; ++i) buses.push_back(cell.AddSubscriber(true));
  std::vector<int> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  for (int b : buses) cell.PowerOn(b);
  cell.RunCycles(10);
  const auto sizes = traffic::SizeDistribution::Uniform(40, 500);
  traffic::PoissonUplinkWorkload w(
      cell, nodes, traffic::MeanInterarrivalTicks(0.7, 6, 8, sizes.MeanBytes()), sizes,
      Rng(6));
  int flips = 0;
  auto last_format = cell.base_station().current_format();
  Rng churn(7);
  for (int step = 0; step < 40; ++step) {
    // Toggle one bus per step.
    const int b = buses[static_cast<std::size_t>(churn.UniformInt(0, 4))];
    if (cell.subscriber(b).state() == MobileSubscriber::State::kActive) {
      cell.SignOff(b);
    } else if (cell.subscriber(b).state() == MobileSubscriber::State::kOff) {
      cell.PowerOn(b);
    }
    cell.RunCycles(3);
    if (cell.base_station().current_format() != last_format) {
      ++flips;
      last_format = cell.base_station().current_format();
    }
    EXPECT_TRUE(cell.base_station().gps_manager().IsDensePrefix());
  }
  EXPECT_GT(flips, 3) << "the churn must actually flip formats";
  EXPECT_EQ(cell.metrics().forward_packets_lost, 0);
  EXPECT_GT(cell.metrics().unique_payload_bytes, 0);
}

TEST(MacEdgeTest, GivenUpUserCanRetryAfterPowerCycle) {
  CellConfig config;
  config.seed = 606;
  config.mac.max_registration_attempts = 6;
  Cell cell(config);
  // Fill the cell (gradual arrivals so registrations succeed within the
  // attempt budget) so the newcomer is rejected...
  std::vector<int> crowd;
  for (int i = 0; i < 63; ++i) {
    crowd.push_back(cell.AddSubscriber(false));
    cell.PowerOn(crowd.back());
    if (i % 3 == 2) cell.RunCycles(3);
  }
  cell.RunCycles(20);
  ASSERT_EQ(static_cast<int>(cell.base_station().registered_users().size()), 63);
  const int late = cell.AddSubscriber(false);
  cell.PowerOn(late);
  cell.RunCycles(12);
  ASSERT_EQ(cell.subscriber(late).state(), MobileSubscriber::State::kGivenUp);
  // ... then free a slot and power-cycle the unit: it must succeed now.
  cell.SignOff(crowd[10]);
  cell.PowerOn(late);
  cell.RunCycles(8);
  EXPECT_EQ(cell.subscriber(late).state(), MobileSubscriber::State::kActive);
}

TEST(MacEdgeTest, SelfAddressedMessageLoopsThroughTheBaseStation) {
  // Degenerate but legal: a subscriber messages its own EIN.  The base
  // station reassembles the uplink and schedules it right back downlink.
  CellConfig config;
  config.seed = 607;
  Cell cell(config);
  const int node = cell.AddSubscriber(false);
  cell.PowerOn(node);
  cell.RunCycles(4);
  ASSERT_TRUE(cell.SendSubscriberMessage(node, cell.subscriber(node).ein(), 90));
  cell.RunCycles(10);
  EXPECT_EQ(cell.subscriber(node).stats().forward_packets_received, 3);
}

TEST(MacEdgeTest, LongRunSequenceWrapIsHarmless) {
  // More than 2^11 packets from one subscriber: the 11-bit header sequence
  // wraps; deduplication is keyed on (message, fragment), so nothing
  // double-counts.
  CellConfig config;
  config.seed = 608;
  Cell cell(config);
  const int node = cell.AddSubscriber(false);
  cell.PowerOn(node);
  cell.RunCycles(4);
  std::int64_t offered_packets = 0;
  for (int burst = 0; burst < 60; ++burst) {
    for (int m = 0; m < 5; ++m) {
      cell.SendUplinkMessage(node, 8 * 44);  // 8 packets per message
      offered_packets += 8;
    }
    cell.RunCycles(8);
  }
  cell.RunCycles(30);
  EXPECT_GT(offered_packets, 2048) << "must actually wrap the 11-bit space";
  const auto& st = cell.subscriber(node).stats();
  EXPECT_EQ(st.packets_delivered, offered_packets - st.messages_dropped * 8);
  EXPECT_EQ(cell.base_station().counters().duplicate_packets, 0);
}

TEST(MacEdgeTest, ResetStatsMidRunKeepsProtocolState) {
  CellConfig config;
  config.seed = 609;
  Cell cell(config);
  const int node = cell.AddSubscriber(false);
  cell.PowerOn(node);
  cell.RunCycles(4);
  cell.SendUplinkMessage(node, 120);
  cell.RunCycles(2);
  cell.ResetStats();
  EXPECT_EQ(cell.metrics().unique_payload_bytes, 0);
  EXPECT_EQ(cell.subscriber(node).stats().packets_delivered, 0);
  // The registration and any in-flight work survive the reset.
  EXPECT_EQ(cell.subscriber(node).state(), MobileSubscriber::State::kActive);
  cell.SendUplinkMessage(node, 120);
  cell.RunCycles(6);
  EXPECT_GT(cell.subscriber(node).stats().packets_delivered, 0);
}

}  // namespace
}  // namespace osumac
