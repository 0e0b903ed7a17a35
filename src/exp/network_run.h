// Multi-cell scenario execution: one declarative NetworkScenarioSpec in,
// one RunResult (with its NetworkRollup block populated) out.
//
// This is the Network-shaped sibling of runner.h's ScenarioRun: N cells in
// per-cycle lockstep, random-walk mobility between them, and cross-cell
// subscriber chatter over the backbone.  Like single-cell runs, a network
// run is a pure function of its spec — every random draw (cell internals,
// mobility steps, chatter pairings) derives from the one spec seed via
// exp/seed.h — so the rollup digests it produces are reproducible
// bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "exp/runner.h"
#include "mac/network.h"

namespace osumac::exp {

/// Everything that determines one multi-cell run.  Defaults give a small
/// 2-cell network with light mobility — big enough to exercise backbone
/// routing and handoff, small enough for a CLI smoke run.
struct NetworkScenarioSpec {
  std::string name = "network";

  // --- topology / population ----------------------------------------------
  int cells = 2;
  int data_users_per_cell = 6;
  int gps_users_per_cell = 2;
  /// Cycles run right after power-on so everyone registers before traffic.
  int registration_cycles = 12;

  // --- phases --------------------------------------------------------------
  int warmup_cycles = 10;
  int measure_cycles = 60;

  // --- cell template / determinism ----------------------------------------
  mac::MacConfig mac;
  std::uint64_t seed = 2001;
  /// Worker threads for the lockstep loop (1 = serial).  Purely a wall-
  /// clock knob: results, journals and rollups are bit-identical at any
  /// value (Network's deterministic barrier, docs/SCENARIOS.md).
  int threads = 1;

  /// The per-cell template config (Network derives per-cell seeds from it).
  mac::CellConfig BuildCellConfig() const;
};

/// One network run with its phases exposed, for callers that need the live
/// Network between phases (tools/osumac_sim binds the metrics registry and
/// profiler to it).  Typical use is just Execute().
class NetworkScenarioRun {
 public:
  explicit NetworkScenarioRun(const NetworkScenarioSpec& spec);

  mac::Network& network() { return *network_; }
  const NetworkScenarioSpec& spec() const { return spec_; }

  /// Adds and powers every cell's population, then runs the registration
  /// cycles in lockstep.
  void BuildPopulation();
  /// Runs the warm-up cycles, then resets every cell's statistics so the
  /// measured window starts clean.
  void Warmup();
  /// Runs the measured cycles, interleaving random-walk mobility steps and
  /// cross-cell chatter every few cycles (network_run.cc's constants).
  void Measure();
  /// Assembles the RunResult: network counters plus the merged
  /// (order-invariant) SLO rollup across all cells.
  RunResult Finish();

  /// All phases in order.
  RunResult Execute();

 private:
  NetworkScenarioSpec spec_;
  std::unique_ptr<mac::Network> network_;
  Rng rng_;  ///< mobility + chatter stream (SeedStream::kNetwork)
  std::int64_t messages_attempted_ = 0;
};

/// Runs one network spec start to finish.
RunResult RunNetworkScenario(const NetworkScenarioSpec& spec);

}  // namespace osumac::exp
