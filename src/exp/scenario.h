// Declarative scenario descriptions for the evaluation harness.
//
// A ScenarioSpec is plain data that FULLY determines one simulated run:
// population mix, workload, channel models, feature toggles, phase lengths
// and the seed.  Handing the same spec to the runner always produces the
// same RunResult, no matter which thread executes it or what ran before —
// that property is what makes sweeps embarrassingly parallel (see
// runner.h) and results comparable across PRs (see emit.h).
//
// The figure benches, tools/osumac_sim, tools/make_figures and the config
// matrix/soak tests all build their runs from these specs instead of
// hand-rolling the build-cell → populate → warm-up → run loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mac/cell.h"
#include "traffic/workload.h"

namespace osumac::exp {

/// Uplink/downlink traffic attached to the data subscribers.
struct WorkloadSpec {
  /// Reverse-channel load index (Section 5); <= 0 disables uplink traffic.
  double rho = 0.5;
  traffic::SizeDistribution sizes = traffic::SizeDistribution::Uniform(40, 500);

  /// Forward-channel load index; <= 0 disables downlink traffic unless an
  /// explicit interarrival is given.
  double downlink_rho = 0.0;
  /// Explicit mean downlink interarrival in cycles (overrides downlink_rho
  /// when > 0; the ARQ ablation drives a fixed-rate downlink this way).
  double downlink_interarrival_cycles = 0.0;
  traffic::SizeDistribution downlink_sizes =
      traffic::SizeDistribution::Uniform(40, 500);
};

/// Mid-run subscriber arrivals (registration storms, commuter churn).
/// `arrivals` extra data subscribers power on after warm-up, separated by
/// uniform gaps in [gap_lo_cycles, gap_hi_cycles]; their registration
/// latencies are collected into RunResult::churn_registration_latency.
struct ChurnSpec {
  int arrivals = 0;
  int gap_lo_cycles = 0;
  int gap_hi_cycles = 0;
  /// After its gap, wait up to this many extra cycles for the newcomer to
  /// finish registering before sampling (0 = sample at run end instead).
  /// An arrival still unregistered when sampled contributes this bound
  /// (or measure_cycles when 0) as its latency, so stragglers are counted
  /// honestly rather than dropped.
  int max_extra_wait_cycles = 0;
  /// Sign each measured arrival off again after sampling (commuter churn;
  /// keeps long arrival sequences from exhausting the user-ID space).
  bool sign_off_after_sample = false;
};

/// Everything that determines one run.  Defaults reproduce the paper's
/// Section-5 load-sweep point (10 data users, 4 buses, uniform 40-500 B
/// e-mail), matching the pre-engine bench/sweep_common.h harness.
struct ScenarioSpec {
  std::string name = "scenario";

  // --- population ----------------------------------------------------------
  int data_users = 10;
  int gps_users = 4;
  /// Cycles run right after power-on so the population registers before
  /// any workload starts.
  int registration_cycles = 12;

  // --- phases --------------------------------------------------------------
  int warmup_cycles = 50;
  int measure_cycles = 800;
  /// Zero all statistics after warm-up (on: figure metrics cover exactly
  /// the measured window; off: they cover the whole run, which the storm
  /// scenarios want for whole-run collision counts).
  bool reset_stats_after_warmup = true;

  // --- traffic -------------------------------------------------------------
  WorkloadSpec workload;
  ChurnSpec churn;

  // --- cell ----------------------------------------------------------------
  /// Medium-access policy the run's cell hosts (scenario key `mac`).  "osu"
  /// — the default — runs the full mac::Cell; other names from
  /// mac::KnownMacPolicies() run the generic mac::PolicyCell driver, which
  /// has no downlink, no churn and none of the OSU scheduler toggles, so
  /// such specs must leave them unset (SpecInputError).  Kept out of
  /// Describe()/spec JSON when default so pre-existing artifacts stay
  /// byte-identical.
  std::string mac_policy = "osu";
  mac::MacConfig mac;
  mac::ChannelModelConfig forward;
  mac::ChannelModelConfig reverse;
  bool erasure_side_information = false;

  // --- determinism / output ------------------------------------------------
  std::uint64_t seed = 2001;
  /// Journal every N-th measured cycle into RunResult::journal (obs/
  /// run_journal.h); 0 — the default — disables journaling entirely.
  /// Recording consumes no randomness and reads no clocks, so it never
  /// perturbs the run it observes.  Kept out of Describe()/spec JSON when
  /// 0 so pre-existing artifacts stay byte-identical.
  int journal_every = 0;

  /// The CellConfig this spec builds (seed derived via SeedStream::kCell).
  mac::CellConfig BuildCellConfig() const;

  /// Reverse data slots per cycle the workload math assumes.  Derived from
  /// the GPS population's *dynamic* format even when the static-GPS
  /// ablation pins format 1, so both arms of Fig 12(b) offer the same
  /// absolute byte rate (the bandwidth loss is exactly what that figure
  /// measures).
  int DataSlotsForLoad() const;

  /// "key=value ..." one-liner for provenance headers and progress logs.
  std::string Describe() const;
};

/// Largest reverse or forward load index a spec may ask for.  The heaviest
/// shipped load is bench_multichannel's ~2.2x; past a few times capacity a
/// run only grows its queues, and at ~1e9 the Poisson arrivals land every
/// tick, so the run spins without end.
inline constexpr double kMaxLoadIndex = 10.0;

/// Why `spec` cannot run, or "" when it can.  The one check of a whole
/// spec; the scenario parser, osumac_sim and ScenarioRun (as a CHECK) all
/// call it.  The rules:
///   * populations, phase lengths and churn counts are >= 0, and
///     churn.gap_lo_cycles <= churn.gap_hi_cycles;
///   * rho and downlink_rho are at most kMaxLoadIndex (NaN fails too;
///     <= 0 still means off);
///   * OSU: gps_users <= mac.max_gps_users and mac.min_contention_slots >= 1;
///   * other tenants: data_users + gps_users fit the kMaxActiveUsers user
///     IDs, and the inputs only the OSU driver honours stay unset —
///     downlink traffic, churn, and mac.arq / mac.second_cf /
///     mac.dynamic_gps / mac.dynamic_contention at their defaults.
/// The message names the scenario keys involved; `keys` (if non-null)
/// receives them.
std::string SpecInputError(const ScenarioSpec& spec,
                           std::vector<std::string>* keys = nullptr);

/// "perfect", "uniform" or "ge": the scenario-file name of a channel kind.
const char* ChannelKindName(mac::ChannelModelConfig::Kind kind);

/// The paper's Section-5 load-index sweep {0.3, 0.5, 0.8, 0.9, 1.0, 1.1}.
const std::vector<double>& LoadSweep();

/// A load-sweep point named "rho_<rho>" with everything else at the spec
/// defaults — the unit the figure benches sweep over.
ScenarioSpec LoadPoint(double rho);

/// `replications` copies of `spec` under independent seeds
/// (seed + 7919 * r, the pre-engine harness' replication ladder) with
/// "#<r>" appended to the name.  Results aggregate with RunningStats.
std::vector<ScenarioSpec> ExpandReplications(const ScenarioSpec& spec,
                                             int replications);

/// Seed stride between replications (a prime, so seed ladders of different
/// base never collide on overlapping streams).
inline constexpr std::uint64_t kReplicationSeedStride = 7919;

}  // namespace osumac::exp
