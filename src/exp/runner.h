// Scenario execution: one declarative ScenarioSpec in, one RunResult out —
// serially via RunScenario / ScenarioRun, or fanned out over a worker-
// thread pool via SweepRunner.
//
// Parallelism model: every spec builds its own cell (simulator, channels,
// RNGs) on the worker that claims it, so workers share no mutable state;
// the per-spec seed derivation (exp/seed.h) makes each run a pure function
// of its spec.  Results come back in input order and are bit-identical at
// any job count — `SweepRunner(1)` and `SweepRunner(64)` agree to the last
// bit, which tests/exp_test.cc pins.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "mac/policy_cell.h"
#include "metrics/experiment.h"
#include "obs/run_journal.h"
#include "obs/slo.h"

namespace osumac::exp {

/// Everything one run produces: the paper's figure metrics, the raw
/// base-station counters, cell-level aggregates and churn measurements.
struct RunResult {
  std::string name;
  std::uint64_t seed = 0;

  metrics::FigureMetrics figure;
  mac::BsCounters bs;

  /// Realized offered load (sanity check against the spec's rho).
  double offered_load = 0.0;
  std::int64_t measured_cycles = 0;
  std::int64_t capacity_bytes = 0;
  std::int64_t offered_bytes = 0;
  std::int64_t unique_payload_bytes = 0;
  std::int64_t uplink_messages_offered = 0;
  std::int64_t forward_packets_lost = 0;

  // --- downlink (when the spec drives one) ---------------------------------
  std::int64_t downlink_messages_generated = 0;  ///< in the measured window
  std::int64_t downlink_messages_completed = 0;
  double downlink_mean_delay_cycles = 0.0;

  // --- churn (when the spec stages arrivals) -------------------------------
  /// Per-arrival registration latency in cycles, in arrival order.
  std::vector<double> churn_registration_latency;
  int churn_registered = 0;

  /// Per-class QoS summary from the cell's always-on SloMonitor (access
  /// delay, checking delay, inter-service gap vs the paper's budgets),
  /// indexed by obs::SloClass.  Collected for every run; purely derived
  /// from the deterministic simulation, so sweep results stay bit-identical
  /// across job counts.
  std::vector<obs::SloClassSummary> slo;

  /// Network-wide rollup, populated only by multi-cell runs
  /// (exp::RunNetworkScenario); `cells == 0` means "not a network run" and
  /// keeps single-cell sweep artifacts byte-identical.  `slo` above then
  /// holds the *merged* digest (Network::SloRollup), whose quantiles come
  /// from the merged histograms — never from averaging per-cell quantiles.
  struct NetworkRollup {
    int cells = 0;
    int subscribers = 0;
    std::int64_t backbone_messages = 0;
    std::int64_t backbone_unrouted = 0;
    std::int64_t handoffs = 0;
  };
  NetworkRollup network;

  /// The run's per-cycle digest journal (obs/run_journal.h), populated only
  /// when spec.journal_every > 0; null — the default — keeps pre-existing
  /// sweep artifacts byte-identical.  Shared so RunResult stays copyable;
  /// the journal is immutable once the run finishes.
  std::shared_ptr<const obs::RunJournal> journal;
};

/// Optional callbacks into a run's phases, for callers that attach
/// observers, traces or timers to the live cell (tools/osumac_sim).  Only
/// the serial entry points honor hooks; SweepRunner runs hook-free.  Each
/// fires at most once, and only the family matching the spec's tenant.
struct RunHooks {
  std::function<void(mac::Cell&)> after_build;    ///< before any cycle runs
  std::function<void(mac::Cell&)> after_warmup;   ///< stats just reset
  std::function<void(mac::Cell&)> before_finish;  ///< measured cycles done
  /// Policy-tenant counterparts of after_build/before_finish: called with
  /// the live PolicyCell when spec.mac_policy != "osu" (the Cell hooks
  /// above are never called for such runs).
  std::function<void(mac::PolicyCell&)> policy_after_build;
  std::function<void(mac::PolicyCell&)> policy_before_finish;
};

/// One scenario run with its phases exposed, for callers that need the
/// live cell between phases (tests poke invariants mid-run; osumac_sim
/// attaches the auditor and event trace).  Typical use is just Execute().
///
/// The constructor maps spec.mac_policy to its driver — mac::Cell for
/// "osu", mac::PolicyCell hosting mac::MakeMacPolicy(name) otherwise — and
/// every phase runs through the mac::CellDriver contract, so all tenants
/// share one ladder.  Only the OSU downlink and churn staging and the
/// counters -> RunResult mapping are tenant-specific.
class ScenarioRun {
 public:
  /// CHECK-fails on a spec that cannot run (SpecInputError).
  explicit ScenarioRun(const ScenarioSpec& spec);
  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  /// The OSU cell; CHECK-fails for policy tenants.
  mac::Cell& cell();
  /// The grid tenant's cell; null for OSU specs.
  mac::PolicyCell* policy_cell() { return policy_; }
  const ScenarioSpec& spec() const { return spec_; }
  const std::vector<int>& data_nodes() const { return data_nodes_; }
  const std::vector<int>& gps_nodes() const { return gps_nodes_; }

  /// Adds and powers the population, then runs the registration cycles.
  void BuildPopulation();
  /// Starts the spec's uplink/downlink workloads (they generate until the
  /// run is destroyed).
  void StartWorkloads();
  /// Runs the warm-up cycles and (per the spec) resets statistics.
  void Warmup();
  /// Stages churn arrivals and runs the measured cycles.
  void Measure();
  /// Assembles the RunResult from the finished cell.
  RunResult Finish();

  /// All phases in order, firing `hooks` between them.
  RunResult Execute(const RunHooks& hooks = {});

  /// The run's journal, created by Warmup() when spec.journal_every > 0
  /// (null before that, and for journal-off specs).  Callers may install a
  /// reference (CellJournal::ExpectReference) before Measure().
  const std::shared_ptr<obs::RunJournal>& journal() const { return journal_; }

 private:
  void StageChurn();

  ScenarioSpec spec_;
  std::unique_ptr<mac::CellDriver> driver_;
  mac::Cell* osu_ = nullptr;           ///< driver_, when the tenant is OSU
  mac::PolicyCell* policy_ = nullptr;  ///< driver_, for every other tenant
  std::vector<int> data_nodes_;
  std::vector<int> gps_nodes_;
  std::vector<int> churn_nodes_;
  std::vector<double> churn_latency_;
  std::unique_ptr<traffic::PoissonUplinkWorkload> uplink_;
  std::unique_ptr<traffic::PoissonDownlinkWorkload> downlink_;
  std::int64_t downlink_generated_at_reset_ = 0;
  std::shared_ptr<obs::RunJournal> journal_;
};

/// Runs one spec start to finish: ScenarioRun(spec).Execute(hooks) (the
/// serial path; what each SweepRunner worker executes per claimed spec).
RunResult RunScenario(const ScenarioSpec& spec, const RunHooks& hooks = {});

/// Executes a vector of specs on `jobs` worker threads (0 = one per
/// hardware core), returning results in input order.
class SweepRunner {
 public:
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Runs every spec; `progress` (if set) is invoked after each completed
  /// run with (completed, total), serialized, from worker threads.
  std::vector<RunResult> Run(
      const std::vector<ScenarioSpec>& specs,
      const std::function<void(int, int)>& progress = {}) const;

 private:
  // Immutable after construction; the fan-out's shared mutable state lives
  // inside common/parallel.h's ParallelForIndex, not on this object (which
  // is why Run() can be const and the runner reusable across sweeps).
  const int jobs_;
};

/// Scans argv for "--jobs N" / "--jobs=N" / "-j N" and returns N (or
/// `fallback` when absent); the flag every figure bench supports.  N must
/// be a whole non-negative integer (ParseInt): anything else, a missing
/// value or a second --jobs returns nullopt with `error` (if non-null)
/// naming --jobs.
std::optional<int> JobsFromArgs(int argc, char** argv, int fallback = 0,
                                std::string* error = nullptr);

}  // namespace osumac::exp
