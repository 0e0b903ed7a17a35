#include "exp/runner.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/sync.h"
#include "exp/scenario_io.h"
#include "exp/seed.h"
#include "mac/cycle_layout.h"
#include "mac/mac_policy.h"
#include "obs/profiler.h"

namespace osumac::exp {

namespace {

/// OSU counters -> RunResult: the paper's full figure set and the
/// base-station ledger.
void FillOsuResult(const mac::Cell& cell, const std::vector<int>& data_nodes,
                   RunResult& result) {
  result.figure = metrics::ComputeFigureMetrics(cell, data_nodes);
  result.bs = cell.base_station().counters();
}

/// Policy counters -> RunResult: the policy-agnostic subset of the figure
/// metrics — utilization, delays, collision probability, Jain fairness from
/// the substrate's per-user byte ledger, and the GPS QoS columns from the
/// SloMonitor (`result.slo` must already be set).
void FillPolicyResult(const mac::PolicyCell& cell, const std::vector<int>& data_nodes,
                      int gps_nodes, RunResult& result) {
  const mac::CellMetrics& cm = cell.metrics();
  const mac::PolicyCounters& k = cell.counters();

  metrics::FigureMetrics& f = result.figure;
  f.utilization = cm.Utilization();
  if (!cell.packet_delay_cycles().empty()) {
    f.mean_packet_delay_cycles = cell.packet_delay_cycles().Mean();
    f.p95_packet_delay_cycles = cell.packet_delay_cycles().Quantile(0.95);
  }
  if (!cell.message_delay_cycles().empty()) {
    f.mean_message_delay_cycles = cell.message_delay_cycles().Mean();
  }
  const std::int64_t contention_uses = k.collisions + k.request_packets_received;
  f.collision_probability =
      contention_uses > 0
          ? static_cast<double>(k.collisions) / static_cast<double>(contention_uses)
          : 0.0;
  std::vector<double> shares;
  for (const int node : data_nodes) {
    const auto it = cm.per_user_bytes.find(cell.uid_of(node));
    shares.push_back(it == cm.per_user_bytes.end()
                         ? 0.0
                         : static_cast<double>(it->second));
  }
  f.fairness_index = JainFairnessIndex(shares);
  // Fragment loss to policy deadlines, the policy-run analogue of the OSU
  // buffer-drop rate.
  const std::int64_t frag_outcomes = k.deadline_drops + k.data_packets_received;
  f.message_drop_rate =
      frag_outcomes > 0
          ? static_cast<double>(k.deadline_drops) / static_cast<double>(frag_outcomes)
          : 0.0;
  f.avg_data_slots_used =
      cm.cycles > 0 ? static_cast<double>(k.data_packets_received) /
                          static_cast<double>(cm.cycles)
                    : 0.0;
  f.gps_access_delay_max_s =
      result.slo[static_cast<std::size_t>(obs::SloClass::kGpsAccess)].max_seconds;
  if (gps_nodes > 0 && cm.cycles > 0) {
    f.gps_reports_per_bus_per_cycle = static_cast<double>(k.gps_packets_received) /
                                      static_cast<double>(gps_nodes) /
                                      static_cast<double>(cm.cycles);
  }

  // The policy-agnostic counters, in their BsCounters slots so downstream
  // tables and JSON emitters need no second schema.
  result.bs.cycles = cm.cycles;
  result.bs.data_packets_received = k.data_packets_received;
  result.bs.gps_packets_received = k.gps_packets_received;
  result.bs.reservation_packets_received = k.request_packets_received;
  result.bs.collisions = k.collisions;
  result.bs.decode_failures = k.decode_failures;
  result.bs.payload_bytes_received = k.payload_bytes_received;
  result.bs.idle_assigned_slots = k.idle_slots;
  result.bs.contention_slot_cycles = k.contention_slots;
  result.bs.data_slots_offered = k.granted_slots + k.contention_slots;
  result.bs.data_slots_used = k.data_packets_received;
}

}  // namespace

ScenarioRun::ScenarioRun(const ScenarioSpec& spec) : spec_(spec) {
  OSUMAC_CHECK_EQ(SpecInputError(spec_), std::string());
  if (spec_.mac_policy == "osu") {
    auto cell = std::make_unique<mac::Cell>(spec_.BuildCellConfig());
    osu_ = cell.get();
    driver_ = std::move(cell);
  } else {
    auto cell = std::make_unique<mac::PolicyCell>(
        spec_.BuildCellConfig(), mac::MakeMacPolicy(spec_.mac_policy),
        DeriveSeed(spec_.seed, SeedStream::kMacPolicy));
    policy_ = cell.get();
    driver_ = std::move(cell);
  }
}

ScenarioRun::~ScenarioRun() {
  // Workloads hold a reference to the cell; stop them before it dies.
  if (uplink_ != nullptr) uplink_->Stop();
  if (downlink_ != nullptr) downlink_->Stop();
}

mac::Cell& ScenarioRun::cell() {
  OSUMAC_CHECK(osu_ != nullptr && "ScenarioRun::cell() is the OSU driver");
  return *osu_;
}

void ScenarioRun::BuildPopulation() {
  OSUMAC_PROFILE_ZONE("exp.populate");
  for (int i = 0; i < spec_.data_users; ++i) {
    data_nodes_.push_back(driver_->AddNode(/*wants_gps=*/false));
  }
  for (int i = 0; i < spec_.gps_users; ++i) {
    gps_nodes_.push_back(driver_->AddNode(/*wants_gps=*/true));
  }
  driver_->RunCycles(spec_.registration_cycles);
}

void ScenarioRun::StartWorkloads() {
  const WorkloadSpec& w = spec_.workload;
  if (w.rho > 0 && !data_nodes_.empty()) {
    const Tick interarrival = traffic::MeanInterarrivalTicks(
        w.rho, spec_.data_users, spec_.DataSlotsForLoad(), w.sizes.MeanBytes());
    uplink_ = std::make_unique<traffic::PoissonUplinkWorkload>(
        *driver_, data_nodes_, interarrival, w.sizes,
        Rng(DeriveSeed(spec_.seed, SeedStream::kUplink)));
  }
  Tick downlink_interarrival = 0;
  if (w.downlink_interarrival_cycles > 0) {
    downlink_interarrival = static_cast<Tick>(w.downlink_interarrival_cycles *
                                              static_cast<double>(mac::kCycleTicks));
  } else if (w.downlink_rho > 0) {
    downlink_interarrival =
        traffic::MeanInterarrivalTicks(w.downlink_rho, spec_.data_users,
                                       mac::kForwardDataSlots,
                                       w.downlink_sizes.MeanBytes());
  }
  if (downlink_interarrival > 0 && !data_nodes_.empty()) {
    downlink_ = std::make_unique<traffic::PoissonDownlinkWorkload>(
        cell(), data_nodes_, downlink_interarrival, w.downlink_sizes,
        Rng(DeriveSeed(spec_.seed, SeedStream::kDownlink)));
  }
}

void ScenarioRun::Warmup() {
  OSUMAC_PROFILE_ZONE("exp.warmup");
  driver_->RunCycles(spec_.warmup_cycles);
  if (spec_.reset_stats_after_warmup) driver_->ResetStats();
  downlink_generated_at_reset_ =
      downlink_ != nullptr ? downlink_->messages_generated() : 0;
  // The journal attaches at the warm-up boundary, like a trace, so its
  // digest chain covers exactly the measured window.
  if (spec_.journal_every > 0) {
    obs::CellJournal::Config jc;
    jc.every = spec_.journal_every;
    journal_ = std::make_shared<obs::RunJournal>(jc);
    driver_->AttachJournal(&journal_->AddCell(0));
  }
}

void ScenarioRun::Measure() {
  OSUMAC_PROFILE_ZONE("exp.measure");
  if (spec_.churn.arrivals > 0) StageChurn();
  driver_->RunCycles(spec_.measure_cycles);
}

void ScenarioRun::StageChurn() {
  mac::Cell& cell = this->cell();
  const ChurnSpec& churn = spec_.churn;
  Rng churn_rng(DeriveSeed(spec_.seed, SeedStream::kChurn));
  for (int i = 0; i < churn.arrivals; ++i) {
    const int node = cell.AddNode(/*wants_gps=*/false);
    churn_nodes_.push_back(node);
    if (churn.gap_hi_cycles > 0) {
      cell.RunCycles(static_cast<int>(
          churn_rng.UniformInt(churn.gap_lo_cycles, churn.gap_hi_cycles)));
    }
    if (churn.max_extra_wait_cycles > 0) {
      // Sample this arrival inline: give a straggler a bounded chance to
      // finish registering, then record its latency (or the bound).
      int extra = 0;
      while (cell.subscriber(node).state() != mac::MobileSubscriber::State::kActive &&
             extra++ < churn.max_extra_wait_cycles) {
        cell.RunCycles(1);
      }
      const auto& samples = cell.subscriber(node).stats().registration_latency_cycles;
      churn_latency_.push_back(samples.empty()
                                   ? static_cast<double>(churn.max_extra_wait_cycles)
                                   : samples.samples()[0]);
      if (churn.sign_off_after_sample) cell.SignOff(node);
    }
  }
}

RunResult ScenarioRun::Finish() {
  OSUMAC_PROFILE_ZONE("exp.finish");
  RunResult result;
  result.name = spec_.name;
  result.seed = spec_.seed;
  result.slo = driver_->slo().Summary();
  if (osu_ != nullptr) {
    FillOsuResult(*osu_, data_nodes_, result);
  } else {
    FillPolicyResult(*policy_, data_nodes_, static_cast<int>(gps_nodes_.size()),
                     result);
  }

  const mac::CellMetrics& cm = driver_->metrics();
  result.offered_load =
      cm.capacity_bytes > 0 ? static_cast<double>(cm.offered_bytes) /
                                  static_cast<double>(cm.capacity_bytes)
                            : 0.0;
  result.measured_cycles = cm.cycles;
  result.capacity_bytes = cm.capacity_bytes;
  result.offered_bytes = cm.offered_bytes;
  result.unique_payload_bytes = cm.unique_payload_bytes;
  result.uplink_messages_offered = cm.uplink_messages_offered;
  result.forward_packets_lost = cm.forward_packets_lost;

  if (downlink_ != nullptr) {
    result.downlink_messages_generated =
        downlink_->messages_generated() - downlink_generated_at_reset_;
  }
  result.downlink_messages_completed =
      static_cast<std::int64_t>(cm.downlink_message_delay_cycles.size());
  result.downlink_mean_delay_cycles = cm.downlink_message_delay_cycles.empty()
                                          ? 0.0
                                          : cm.downlink_message_delay_cycles.Mean();

  if (spec_.churn.arrivals > 0) {
    // Arrivals sampled inline already carry their latency; the rest (storm
    // mode) are sampled here, after the measured cycles gave them time to
    // register.  Unregistered stragglers count the full wait, not nothing.
    const mac::Cell& cell = this->cell();
    if (churn_latency_.empty()) {
      for (const int node : churn_nodes_) {
        const auto& samples = cell.subscriber(node).stats().registration_latency_cycles;
        churn_latency_.push_back(samples.empty()
                                     ? static_cast<double>(spec_.measure_cycles)
                                     : samples.samples()[0]);
      }
    }
    result.churn_registration_latency = churn_latency_;
    for (const int node : churn_nodes_) {
      if (cell.subscriber(node).state() == mac::MobileSubscriber::State::kActive) {
        ++result.churn_registered;
      }
    }
  }

  result.journal = journal_;
  return result;
}

RunResult ScenarioRun::Execute(const RunHooks& hooks) {
  // Only the hook family of the spec's tenant fires.
  if (osu_ != nullptr && hooks.after_build) hooks.after_build(*osu_);
  if (policy_ != nullptr && hooks.policy_after_build) hooks.policy_after_build(*policy_);
  BuildPopulation();
  StartWorkloads();
  Warmup();
  if (osu_ != nullptr && hooks.after_warmup) hooks.after_warmup(*osu_);
  Measure();
  if (osu_ != nullptr && hooks.before_finish) hooks.before_finish(*osu_);
  if (policy_ != nullptr && hooks.policy_before_finish) {
    hooks.policy_before_finish(*policy_);
  }
  return Finish();
}

RunResult RunScenario(const ScenarioSpec& spec, const RunHooks& hooks) {
  return ScenarioRun(spec).Execute(hooks);
}

std::optional<int> JobsFromArgs(int argc, char** argv, int fallback, std::string* error) {
  std::optional<int> found;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    } else if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 >= argc) {
        if (error != nullptr) *error = std::string(arg) + " needs a value";
        return std::nullopt;
      }
      value = argv[++i];
    } else {
      continue;
    }
    if (found.has_value()) {
      if (error != nullptr) *error = "--jobs given more than once";
      return std::nullopt;
    }
    int jobs = 0;
    if (!ParseInt(value, &jobs) || jobs < 0) {
      if (error != nullptr) {
        *error = std::string("--jobs ") + value +
                 ": expected a non-negative integer (0 = one worker per core)";
      }
      return std::nullopt;
    }
    found = jobs;
  }
  return found.value_or(fallback);
}

SweepRunner::SweepRunner(int jobs) : jobs_(ResolveParallelism(jobs)) {}

std::vector<RunResult> SweepRunner::Run(
    const std::vector<ScenarioSpec>& specs,
    const std::function<void(int, int)>& progress) const {
  // Result slots need no lock: workers write disjoint indices (each index
  // is claimed exactly once), and the barrier inside ParallelForIndex
  // publishes every slot to this thread before `results` is read.
  std::vector<RunResult> results(specs.size());
  const int total = static_cast<int>(specs.size());
  // The progress callback is documented as serialized; the counter shares
  // its mutex so (completed, total) pairs arrive in order.
  struct ProgressState {
    Mutex mu;
    int completed GUARDED_BY(mu) = 0;
  } state;
  osumac::ParallelForIndex(total, jobs_, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        RunScenario(specs[static_cast<std::size_t>(i)]);
    if (progress) {
      const MutexLock lock(state.mu);
      progress(++state.completed, total);
    }
  });
  return results;
}

}  // namespace osumac::exp
