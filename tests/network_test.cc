// Dedicated tests for the multi-cell Network layer: the EIN directory that
// backs O(1) backbone routing, handoff/sign-off semantics against in-flight
// traffic, the reflecting random-walk mobility model, multi-carrier capacity
// scaling, and the deterministic barrier that makes parallel lockstep runs
// bit-identical to serial ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "exp/network_run.h"
#include "mac/ein_directory.h"
#include "mac/network.h"
#include "obs/run_journal.h"

namespace osumac {
namespace {

using mac::CellConfig;
using mac::EinDirectory;
using mac::MobileSubscriber;
using mac::Network;

// ---------------------------------------------------------------------------
// EIN directory
// ---------------------------------------------------------------------------

TEST(EinDirectoryTest, InsertFindUpdateErase) {
  EinDirectory dir;
  EXPECT_EQ(dir.size(), 0);
  EXPECT_EQ(dir.Find(5000), nullptr);

  dir.Insert(5000, 2, 7);
  ASSERT_NE(dir.Find(5000), nullptr);
  EXPECT_EQ(dir.Find(5000)->cell, 2);
  EXPECT_EQ(dir.Find(5000)->node, 7);
  EXPECT_EQ(dir.size(), 1);

  dir.Update(5000, 3, 0);
  EXPECT_EQ(dir.Find(5000)->cell, 3);
  EXPECT_EQ(dir.Find(5000)->node, 0);

  dir.Erase(5000);
  EXPECT_EQ(dir.Find(5000), nullptr);
  EXPECT_EQ(dir.size(), 0);
}

TEST(EinDirectoryTest, StaysConsistentUnderChurn) {
  // Mirror a long add/move/remove churn against a std::map reference; the
  // interleaving reuses EINs after erasure, so tombstone reuse, probe-chain
  // integrity and per-shard growth all get exercised.
  EinDirectory dir;
  std::map<mac::Ein, EinDirectory::Location> reference;
  Rng rng(20260808);
  for (int step = 0; step < 20000; ++step) {
    const mac::Ein ein =
        static_cast<mac::Ein>(5000 + rng.UniformInt(0, 1499));
    const int cell = static_cast<int>(rng.UniformInt(0, 63));
    const int node = static_cast<int>(rng.UniformInt(0, 15));
    const auto it = reference.find(ein);
    const std::int64_t action = rng.UniformInt(0, 2);
    if (it == reference.end()) {
      dir.Insert(ein, cell, node);
      reference[ein] = {cell, node};
    } else if (action == 0) {
      dir.Erase(ein);
      reference.erase(it);
    } else {
      dir.Update(ein, cell, node);
      it->second = {cell, node};
    }
  }
  ASSERT_EQ(dir.size(), static_cast<int>(reference.size()));
  for (const auto& [ein, loc] : reference) {
    const EinDirectory::Location* found = dir.Find(ein);
    ASSERT_NE(found, nullptr) << "ein " << ein;
    EXPECT_EQ(found->cell, loc.cell) << "ein " << ein;
    EXPECT_EQ(found->node, loc.node) << "ein " << ein;
  }
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(SubstreamSeedTest, OldAdditiveCollisionPairsNowDiverge) {
  // The pre-directory Network derived cell seeds as seed + i * 0x9E3779B9u,
  // so (seed, cell 2) collided with (seed + 2 * 0x9E3779B9u, cell 0): two
  // different networks ran bit-identical cells.  The mixed derivation keeps
  // such sibling pairs apart.
  const std::uint64_t gamma = 0x9E3779B9u;
  EXPECT_NE(DeriveSubstreamSeed(7, 2), DeriveSubstreamSeed(7 + 2 * gamma, 0));
  EXPECT_NE(DeriveSubstreamSeed(7, 1), DeriveSubstreamSeed(7 + gamma, 0));
  // And sibling streams of one seed are pairwise distinct.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.push_back(DeriveSubstreamSeed(2001, i));
  }
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]) << "cells " << a << " and " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Handoff / sign-off semantics
// ---------------------------------------------------------------------------

TEST(NetworkChurnTest, HandoffWithInFlightBackboneMessage) {
  CellConfig config;
  config.seed = 90;
  Network net(config, 3);
  const int alice = net.AddSubscriber(0, false);
  const int bob = net.AddSubscriber(1, false);
  net.PowerOn(alice);
  net.PowerOn(bob);
  net.RunCycles(5);
  ASSERT_EQ(net.subscriber(alice).state(), MobileSubscriber::State::kActive);
  ASSERT_EQ(net.subscriber(bob).state(), MobileSubscriber::State::kActive);

  // The message needs several cycles of uplink before the backbone sees it;
  // bob moves while it is still in flight.  The directory re-routes the
  // completed message to cell 2, not to the cell it was addressed from.
  ASSERT_TRUE(net.SendMessage(alice, bob, 130));
  net.Handoff(bob, 2);
  net.RunCycles(12);
  EXPECT_EQ(net.counters().backbone_messages, 1);
  EXPECT_EQ(net.subscriber(bob).stats().forward_packets_received, 3)
      << "message followed the handoff to cell 2";
  EXPECT_EQ(net.cell(2).base_station().counters().messages_forwarded_local, 1);
  EXPECT_EQ(net.cell(1).base_station().counters().messages_forwarded_local, 0);
}

TEST(NetworkChurnTest, HandoffToSameCellIsNoOp) {
  CellConfig config;
  config.seed = 91;
  Network net(config, 2);
  const int bob = net.AddSubscriber(1, false);
  net.PowerOn(bob);
  net.RunCycles(5);
  ASSERT_EQ(net.subscriber(bob).state(), MobileSubscriber::State::kActive);
  const Network::Location before = net.WhereIs(bob);

  net.Handoff(bob, 1);
  EXPECT_EQ(net.counters().handoffs, 0);
  EXPECT_EQ(net.WhereIs(bob).cell, before.cell);
  EXPECT_EQ(net.WhereIs(bob).node, before.node);
  EXPECT_EQ(net.subscriber(bob).state(), MobileSubscriber::State::kActive)
      << "no sign-off/re-registration churn for a same-cell handoff";
}

TEST(NetworkChurnTest, RouteMissCountsBackboneUnrouted) {
  CellConfig config;
  config.seed = 92;
  Network net(config, 2);
  const int alice = net.AddSubscriber(0, false);
  const int bob = net.AddSubscriber(1, false);
  net.PowerOn(alice);
  net.PowerOn(bob);
  net.RunCycles(5);
  ASSERT_EQ(net.subscriber(alice).state(), MobileSubscriber::State::kActive);

  // Bob leaves the network entirely; his EIN is gone from the directory, so
  // alice's message completes at cell 0's base station and the backbone has
  // nowhere to send it.
  net.SignOff(bob);
  EXPECT_EQ(net.counters().sign_offs, 1);
  EXPECT_EQ(net.WhereIs(bob).cell, -1);
  ASSERT_TRUE(net.SendMessage(alice, bob, 130));
  net.RunCycles(10);
  EXPECT_EQ(net.counters().backbone_unrouted, 1);
  EXPECT_EQ(net.counters().backbone_messages, 0);
}

TEST(NetworkChurnTest, DirectoryTracksSubscribersThroughChurn) {
  CellConfig config;
  config.seed = 93;
  Network net(config, 4);
  std::vector<int> ids;
  for (int c = 0; c < 4; ++c) {
    for (int k = 0; k < 3; ++k) {
      ids.push_back(net.AddSubscriber(c, /*wants_gps=*/false));
      net.PowerOn(ids.back());
    }
  }
  EXPECT_EQ(net.registered_count(), 12);
  net.RunCycles(8);

  Rng rng(424242);
  int live = 12;
  for (int step = 0; step < 40; ++step) {
    const int id = ids[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
    if (net.WhereIs(id).cell < 0) continue;  // already signed off
    if (rng.Bernoulli(0.25)) {
      net.SignOff(id);
      --live;
    } else {
      net.Handoff(id, static_cast<int>(rng.UniformInt(0, 3)));
    }
    net.RunCycles(2);
  }
  EXPECT_EQ(net.registered_count(), live);
  // Every live mobile's directory location must agree with the cell that
  // actually owns a subscriber carrying its EIN.
  for (const int id : ids) {
    const Network::Location loc = net.WhereIs(id);
    if (loc.cell < 0) continue;
    EXPECT_EQ(net.cell(loc.cell).subscriber(loc.node).ein(), net.EinOf(id))
        << "subscriber " << id;
  }
}

// ---------------------------------------------------------------------------
// Reflecting random walk
// ---------------------------------------------------------------------------

TEST(RandomWalkTest, EdgeCellsReflectInsteadOfDoubleHandoff) {
  // One mobile in an edge cell of a 2-cell line, walked with p = 1.  Both
  // directions used to be clamped onto the neighbor, so every walk step
  // handed off (rate 1); a reflecting boundary rejects the off-the-end step,
  // so only the inward direction moves (rate 1/2).
  CellConfig config;
  config.seed = 94;
  Network net(config, 2);
  const int bob = net.AddSubscriber(0, false);
  net.PowerOn(bob);
  net.RunCycles(5);
  ASSERT_EQ(net.subscriber(bob).state(), MobileSubscriber::State::kActive);

  Rng walk_rng(777);
  int attempts = 0;
  for (int step = 0; step < 60; ++step) {
    if (net.subscriber(bob).state() == MobileSubscriber::State::kActive) {
      ++attempts;
      net.RandomWalk(1.0, walk_rng);
    }
    net.RunCycles(6);  // re-register after a move before the next attempt
  }
  const std::int64_t handoffs = net.counters().handoffs;
  ASSERT_GE(attempts, 40);
  // Binomial(attempts, 1/2) stays inside [1/4, 3/4] with overwhelming
  // probability; the clamped walk would sit at exactly `attempts`.
  EXPECT_GT(handoffs, attempts / 4);
  EXPECT_LT(handoffs, attempts * 3 / 4);
}

TEST(RandomWalkTest, SkipsSignedOffMobiles) {
  CellConfig config;
  config.seed = 95;
  Network net(config, 3);
  const int bob = net.AddSubscriber(1, false);
  net.PowerOn(bob);
  net.RunCycles(5);
  net.SignOff(bob);
  Rng walk_rng(778);
  net.RandomWalk(1.0, walk_rng);
  EXPECT_EQ(net.counters().handoffs, 0);
  EXPECT_EQ(net.WhereIs(bob).cell, -1);
}

// ---------------------------------------------------------------------------
// Multi-carrier capacity: with no mobility, K lockstep cells are one site
// with K forward/reverse channel pairs (the system model's "a number of
// frequencies")
// ---------------------------------------------------------------------------

TEST(NetworkCapacityTest, SixteenBusesAcrossTwoCells) {
  // One cell caps at 8 GPS users; two cells carry 16 with full QoS.
  CellConfig config;
  config.seed = 902;
  Network net(config, 2);
  std::vector<int> buses;
  for (int i = 0; i < 16; ++i) {
    buses.push_back(net.AddSubscriber(i % 2, /*wants_gps=*/true));
    net.PowerOn(buses.back());
  }
  net.RunCycles(12);
  for (int c = 0; c < net.cell_count(); ++c) {
    EXPECT_EQ(net.cell(c).base_station().gps_manager().active_count(), 8)
        << "cell " << c;
    net.cell(c).ResetStats();
  }
  net.RunCycles(30);
  for (const int b : buses) {
    const auto& st = net.subscriber(b).stats();
    EXPECT_GE(st.gps_reports_sent, 29) << b;
    EXPECT_LT(st.gps_access_delay_seconds.Max(), 4.0) << b;
  }
}

TEST(NetworkCapacityTest, CapacityScalesWithCells) {
  // The same total offered load at 2x a single cell's capacity: one cell
  // saturates, two carry it comfortably.
  const auto payload = [](int cells) {
    CellConfig config;
    config.seed = 904;
    Network net(config, cells);
    std::vector<int> ids;
    for (int i = 0; i < 12; ++i) {
      ids.push_back(net.AddSubscriber(i % cells, /*wants_gps=*/false));
      net.PowerOn(ids.back());
    }
    net.RunCycles(12);
    // Deterministic steady offered load, ~2x one cell's data capacity: 12
    // users x 6 packets every 2 cycles = 36 packets/cycle vs ~8 usable
    // slots per cell.
    for (int step = 0; step < 120; ++step) {
      for (const int id : ids) {
        const Network::Location at = net.WhereIs(id);
        if (step % 2 == 0) net.cell(at.cell).SendUplinkMessage(at.node, 264);
      }
      net.RunCycles(1);
    }
    net.RunCycles(20);
    std::int64_t total = 0;
    for (int c = 0; c < net.cell_count(); ++c) {
      total += net.cell(c).metrics().unique_payload_bytes;
    }
    return total;
  };
  const std::int64_t one = payload(1);
  const std::int64_t two = payload(2);
  EXPECT_GT(static_cast<double>(two), static_cast<double>(one) * 1.6)
      << "a second cell must nearly double carried traffic at overload";
}

// ---------------------------------------------------------------------------
// Deterministic parallel lockstep
// ---------------------------------------------------------------------------

exp::NetworkScenarioSpec MetroSpec(int threads) {
  exp::NetworkScenarioSpec spec;
  spec.name = "network_test_metro";
  spec.cells = 8;
  spec.data_users_per_cell = 3;
  spec.gps_users_per_cell = 1;
  spec.registration_cycles = 12;
  spec.warmup_cycles = 6;
  spec.measure_cycles = 30;
  spec.seed = 6001;
  spec.threads = threads;
  return spec;
}

/// Runs the spec with a journal attached over the measured window and
/// returns (journal signature, result).
std::pair<std::uint64_t, exp::RunResult> JournaledRun(
    const exp::NetworkScenarioSpec& spec, obs::RunJournal* journal) {
  exp::NetworkScenarioRun run(spec);
  run.BuildPopulation();
  run.Warmup();
  run.network().AttachJournal(journal);
  run.Measure();
  return {journal->Signature(), run.Finish()};
}

TEST(ParallelNetworkTest, ThreadCountNeverChangesTheRun) {
  const obs::CellJournal::Config jc;
  obs::RunJournal serial_journal(jc);
  const auto [serial_sig, serial] = JournaledRun(MetroSpec(1), &serial_journal);
  // The walk must move someone, or thread counts are compared on a run
  // with no handoff to order.
  EXPECT_GT(serial.network.handoffs, 0);

  for (const int threads : {2, 8}) {
    obs::RunJournal journal(jc);
    const auto [sig, result] = JournaledRun(MetroSpec(threads), &journal);
    EXPECT_EQ(sig, serial_sig) << threads << " threads";
    EXPECT_EQ(result.network.backbone_messages, serial.network.backbone_messages)
        << threads << " threads";
    EXPECT_EQ(result.network.backbone_unrouted, serial.network.backbone_unrouted)
        << threads << " threads";
    EXPECT_EQ(result.network.handoffs, serial.network.handoffs)
        << threads << " threads";
    EXPECT_EQ(result.uplink_messages_offered, serial.uplink_messages_offered)
        << threads << " threads";
    // The SLO rollup digests every delay histogram in the network; equality
    // here means per-cell timing, not just the counters, is bit-identical.
    ASSERT_EQ(result.slo.size(), serial.slo.size());
    for (std::size_t k = 0; k < serial.slo.size(); ++k) {
      EXPECT_EQ(result.slo[k].count, serial.slo[k].count)
          << threads << " threads, class " << k;
      EXPECT_EQ(result.slo[k].max_seconds, serial.slo[k].max_seconds)
          << threads << " threads, class " << k;
    }
  }
}

TEST(ParallelNetworkTest, MoreThreadsThanCellsIsSafe) {
  CellConfig config;
  config.seed = 96;
  Network serial(config, 2);
  Network wide(config, 2, /*threads=*/16);
  const int a0 = serial.AddSubscriber(0, false);
  const int b0 = serial.AddSubscriber(1, false);
  const int a1 = wide.AddSubscriber(0, false);
  const int b1 = wide.AddSubscriber(1, false);
  serial.PowerOn(a0);
  serial.PowerOn(b0);
  wide.PowerOn(a1);
  wide.PowerOn(b1);
  serial.RunCycles(5);
  wide.RunCycles(5);
  ASSERT_TRUE(serial.SendMessage(a0, b0, 130));
  ASSERT_TRUE(wide.SendMessage(a1, b1, 130));
  serial.RunCycles(10);
  wide.RunCycles(10);
  EXPECT_EQ(wide.counters().backbone_messages,
            serial.counters().backbone_messages);
  EXPECT_EQ(wide.subscriber(b1).stats().forward_packets_received,
            serial.subscriber(b0).stats().forward_packets_received);
}

}  // namespace
}  // namespace osumac
