// make_figures — regenerates every evaluation figure and table as CSV files.
//
//   $ ./make_figures [output_dir] [--jobs N] [--mac-matrix] [--no-journal]
//                                                (default: results/, serial)
//
// The one definition of every scenario-sweep experiment: the paper's
// Figs 8-12 points, the Section-5 robustness grid, Fig 8's seed spread and
// fixed 120-byte arm, the Section-2.1 registration check and the three
// ablations (Section-3.5 contention slots, downlink ARQ, erasure side
// information).  It builds the full spec list up front, executes it on the
// sweep runner (bit-identical at any --jobs), and writes one CSV per figure
// (fig8_utilization_delay.csv, fig9_collision_reservation.csv,
// fig10_control_overhead.csv, fig11_fairness.csv, fig12a_cf2_gain.csv,
// fig12b_slot_usage.csv), the robustness grid, one CSV per table
// (fig8_replications.csv, fig8_fixed120.csv, registration_latency.csv,
// ablation_contention.csv, ablation_arq.csv, ablation_erasures.csv), the
// machine-readable BENCH_sweeps.json record of every point, and the
// BENCH_perf.json wall-clock trajectory (per-phase timings; schema checked
// by tools/check_perf.py).  Plot the CSVs with tools/plot_figures.py
// (matplotlib) or any spreadsheet.
//
// --mac-matrix additionally runs the head-to-head MAC comparison (every
// policy from mac::KnownMacPolicies() over the load sweep, byte-identical
// scenario specs), writes mac_matrix.csv, appends the points to
// BENCH_sweeps.json and times the sweep as the bench_mac_matrix perf
// phase.  The default run (no flag) emits exactly what it always did,
// byte for byte.
//
// The default run also re-executes the figure sweep with the per-cycle run
// journal enabled (the sweep_journaled perf phase, gated at 1.10x of the
// journal-off sweep by tools/check_perf.py) and writes the merged digest
// chains as RUN_journal.jsonl — the artifact CI's release-smoke job compares
// across --jobs 1 / --jobs 8 with tools/osumac_diff.py.  --no-journal
// skips that phase (used by the TSan soak, where the run is about races,
// not digests).  The primary sweep itself always runs journal-off, so
// BENCH_sweeps.json stays byte-identical to pre-journal artifacts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "osumac/osumac.h"

using namespace osumac;

namespace {

std::ofstream Open(const std::filesystem::path& dir, const std::string& name) {
  std::ofstream out(dir / name);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", (dir / name).c_str());
    std::exit(1);
  }
  return out;
}

// The tables print 10 significant digits (the figure CSVs print the stream
// default of 6), so a delay of a hundred cycles keeps four decimals.
std::ofstream OpenTable(const std::filesystem::path& dir, const std::string& name,
                        const char* header) {
  std::ofstream out = Open(dir, name);
  out << std::setprecision(10) << header << '\n';
  return out;
}

constexpr int kFig8Replications = 3;
constexpr int kStormRepeats = 5;
constexpr double kArqUplinkRhos[] = {0.3, 0.6, 0.9};
constexpr double kFadeRecoveryProbs[] = {0.30, 0.15, 0.08, 0.04};

// Section 2.1: "80% of the registration requests can be approved in two
// notification cycles, and 99% can be made in 10 cycles", checked on
// isolated arrivals against a quiet cell (the design point) and against a
// busy one with background data traffic.
exp::ScenarioSpec TrickleSpec(const char* name, double background_rho,
                              std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.name = name;
  spec.data_users = 8;
  spec.gps_users = 0;
  spec.registration_cycles = 10;
  spec.warmup_cycles = background_rho > 0 ? 30 : 0;
  spec.measure_cycles = 0;  // the churn loop itself drives the cycles
  spec.reset_stats_after_warmup = false;
  spec.seed = seed;
  spec.workload.rho = background_rho;
  spec.churn.arrivals = 60;
  // Registrations trickle in a few cycles apart (the design point), each
  // sampled inline with a bounded straggler wait.  The measured unit
  // leaves again (commuter churn); otherwise 60 arrivals would exhaust
  // the 6-bit user-ID space and later arrivals would be rejected for
  // capacity rather than contention reasons.
  spec.churn.gap_lo_cycles = 2;
  spec.churn.gap_hi_cycles = 5;
  spec.churn.max_extra_wait_cycles = 40;
  spec.churn.sign_off_after_sample = true;
  return spec;
}

// Section 3.5 ablation: a registration storm hits a loaded cell.  With the
// dynamic controller the base station converts data slots into extra
// contention slots while the collision rate is high and reclaims them
// afterwards; the static variant keeps the single configured contention
// slot.  A saturated background of 6 veterans, then 6 churn arrivals all
// at once (gap 0).  Stats keep accumulating through the storm and arrivals
// are sampled at the end of the run, with the full 60-cycle window as the
// straggler fallback.
exp::ScenarioSpec StormSpec(bool dynamic, int rep) {
  exp::ScenarioSpec spec;
  spec.name = std::string(dynamic ? "dynamic" : "static") + "#" + std::to_string(rep);
  spec.data_users = 6;
  spec.gps_users = 0;
  spec.registration_cycles = 8;
  spec.warmup_cycles = 20;
  spec.measure_cycles = 60;
  spec.reset_stats_after_warmup = false;
  spec.workload.rho = 1.2;
  spec.churn.arrivals = 6;
  spec.mac.dynamic_contention_slots = dynamic;
  spec.seed = 100 + static_cast<std::uint64_t>(rep);
  return spec;
}

// Downlink ARQ (extension) vs the paper's unacknowledged forward channel,
// on a fading forward channel with simultaneous uplink load: ARQ should
// drive the residual downlink loss to ~0, and its ack packets eat into
// reverse-link utilization and uplink delay.
exp::ScenarioSpec ArqSpec(bool arq, double uplink_rho) {
  exp::ScenarioSpec spec;
  spec.name = std::string(arq ? "arq" : "paper") + "_rho" + std::to_string(uplink_rho);
  spec.data_users = 8;
  spec.gps_users = 0;
  spec.registration_cycles = 10;
  spec.warmup_cycles = 30;
  spec.measure_cycles = 600;
  spec.seed = 99;
  spec.workload.rho = uplink_rho;
  spec.workload.downlink_interarrival_cycles = 4;
  spec.workload.downlink_sizes = traffic::SizeDistribution::Fixed(220);
  spec.mac.downlink_arq = arq;
  spec.forward.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  spec.forward.ge.p_good_to_bad = 0.004;
  spec.forward.ge.p_bad_to_good = 0.05;
  spec.forward.ge.error_prob_bad = 0.4;
  return spec;
}

double DownlinkLoss(const exp::RunResult& r) {
  const std::int64_t offered = r.downlink_messages_generated - 2;  // allow 2 in flight
  return offered > 0
             ? std::max(0.0, 1.0 - static_cast<double>(r.downlink_messages_completed) /
                                       static_cast<double>(offered))
             : 0.0;
}

// Erasure side information (extension; the burst-erasure idea of the
// paper's reference [2]) on Gilbert-Elliott reverse fades of mean length
// 1 / p_bad_to_good symbols at 0.9 symbol errors inside a fade.  Side
// information should rescue fades up to ~15 symbols (the erasure budget of
// RS(64,48) with one parity symbol spared for verification); very long
// fades defeat both receivers.
exp::ScenarioSpec FadeSpec(double p_bad_to_good, bool side_info) {
  exp::ScenarioSpec spec;
  spec.name = "fade" + std::to_string(p_bad_to_good) + (side_info ? "_ei" : "");
  spec.data_users = 4;
  spec.gps_users = 4;
  spec.registration_cycles = 25;
  spec.warmup_cycles = 0;  // stats reset right after registration
  spec.measure_cycles = 400;
  spec.seed = 500;
  spec.workload.rho = 0.5;
  spec.erasure_side_information = side_info;
  spec.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  spec.reverse.ge.p_good_to_bad = 0.01;
  spec.reverse.ge.p_bad_to_good = p_bad_to_good;
  spec.reverse.ge.error_prob_good = 1e-4;
  spec.reverse.ge.error_prob_bad = 0.9;
  return spec;
}

double GpsLoss(const exp::RunResult& r) {
  const double total =
      static_cast<double>(r.bs.gps_packets_received + r.bs.gps_packets_failed);
  return total > 0 ? static_cast<double>(r.bs.gps_packets_failed) / total : 0.0;
}

SampleSet ChurnLatency(const exp::RunResult& r) {
  SampleSet latency;
  for (const double sample : r.churn_registration_latency) latency.Add(sample);
  return latency;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("%s\n", osumac::obs::ProvenanceLine("make_figures", 0).c_str());
  std::string jobs_error;
  const std::optional<int> jobs_flag = exp::JobsFromArgs(argc, argv, 1, &jobs_error);
  if (!jobs_flag.has_value()) {
    std::fprintf(stderr, "make_figures: %s\n", jobs_error.c_str());
    return 1;
  }
  const int jobs = *jobs_flag;
  std::filesystem::path dir = "results";
  bool have_dir = false;
  bool mac_matrix = false;
  bool no_journal = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mac-matrix") {
      mac_matrix = true;
    } else if (arg == "--no-journal") {
      no_journal = true;
    } else if (arg == "--jobs" || arg == "-j") {
      ++i;  // skip the value; JobsFromArgs has checked it
    } else if (!have_dir && !arg.empty() && arg[0] != '-') {
      dir = arg;
      have_dir = true;
    } else if (arg.rfind("--jobs=", 0) != 0) {
      std::fprintf(stderr,
                   "make_figures: unexpected argument '%s'\n"
                   "usage: make_figures [DIR] [--jobs N | -j N] [--mac-matrix] "
                   "[--no-journal]\n",
                   arg.c_str());
      return 1;
    }
  }
  std::filesystem::create_directories(dir);
  obs::WallTimerRegistry wall;

  // The full figure workload as one flat spec list: the load sweep with and
  // without CF2 (figs 8-12a), the fig 12(b) arms, the robustness grid, and
  // then the tables' points.
  std::vector<exp::ScenarioSpec> specs;
  std::size_t fig12b_begin = 0;
  std::size_t grid_begin = 0;
  std::size_t tables_begin = 0;
  {
    obs::ScopedWallTimer timer(wall, "spec_build");
    for (const double rho : exp::LoadSweep()) {
      exp::ScenarioSpec point = exp::LoadPoint(rho);
      specs.push_back(point);
      exp::ScenarioSpec no_cf2 = point;
      no_cf2.name += "_nocf2";
      no_cf2.mac.use_second_control_field = false;
      specs.push_back(no_cf2);
    }
    fig12b_begin = specs.size();
    for (const double rho : exp::LoadSweep()) {
      for (const int gps : {1, 4}) {
        for (const bool dynamic : {true, false}) {
          exp::ScenarioSpec point = exp::LoadPoint(rho);
          point.name +=
              "_gps" + std::to_string(gps) + (dynamic ? "_dyn" : "_static");
          point.gps_users = gps;
          point.mac.dynamic_gps_slots = dynamic;
          specs.push_back(point);
        }
      }
    }
    grid_begin = specs.size();
    for (const int data_users : {5, 8, 11, 14}) {
      for (const int gps_users : {1, 3, 4, 8}) {
        exp::ScenarioSpec point = exp::LoadPoint(0.7);
        point.name = "grid_d" + std::to_string(data_users) + "_g" +
                     std::to_string(gps_users);
        point.data_users = data_users;
        point.gps_users = gps_users;
        point.measure_cycles = 500;
        specs.push_back(point);
      }
    }
    // Fig 8's seed spread, then the paper's second workload: fixed 120-byte
    // messages ("the results are found to be quite robust" across both).
    tables_begin = specs.size();
    for (const double rho : exp::LoadSweep()) {
      const std::vector<exp::ScenarioSpec> reps =
          exp::ExpandReplications(exp::LoadPoint(rho), kFig8Replications);
      specs.insert(specs.end(), reps.begin(), reps.end());
    }
    for (const double rho : exp::LoadSweep()) {
      exp::ScenarioSpec point = exp::LoadPoint(rho);
      point.name += "_fixed120";
      point.workload.sizes = traffic::SizeDistribution::Fixed(120);
      specs.push_back(point);
    }
    specs.push_back(TrickleSpec("quiet", 0.0, 11));
    specs.push_back(TrickleSpec("busy", 0.8, 13));
    for (const bool dynamic : {true, false}) {
      for (int rep = 0; rep < kStormRepeats; ++rep) {
        specs.push_back(StormSpec(dynamic, rep));
      }
    }
    for (const double rho : kArqUplinkRhos) {
      for (const bool arq : {false, true}) specs.push_back(ArqSpec(arq, rho));
    }
    for (const double p_recover : kFadeRecoveryProbs) {
      specs.push_back(FadeSpec(p_recover, false));
      specs.push_back(FadeSpec(p_recover, true));
    }
  }

  std::printf("running %zu scenario points (jobs=%d)...\n", specs.size(), jobs);
  const obs::Stopwatch sweep_watch;
  std::vector<exp::RunResult> results;
  {
    obs::ScopedWallTimer timer(wall, "sweep");
    results = exp::SweepRunner(jobs).Run(specs);
  }
  const double wall_seconds = sweep_watch.Seconds();

  // The journaled re-run: the same spec list with the per-cycle run journal
  // on (journal_every = 1).  Its wall phase is CI's overhead gate — check
  // tools/check_perf.py: sweep_journaled must stay within 1.10x of the
  // journal-off sweep — and its merged digest chains become
  // RUN_journal.jsonl, the jobs-invariance artifact for CI's release-smoke job.
  std::vector<exp::RunResult> journaled_results;
  if (!no_journal) {
    std::vector<exp::ScenarioSpec> journaled_specs = specs;
    for (exp::ScenarioSpec& s : journaled_specs) s.journal_every = 1;
    std::printf("running %zu journaled points (jobs=%d)...\n",
                journaled_specs.size(), jobs);
    obs::ScopedWallTimer timer(wall, "sweep_journaled");
    journaled_results = exp::SweepRunner(jobs).Run(journaled_specs);
  }

  // The network observability point: a small multi-cell run whose merged
  // SLO digest and backbone counters ride along in BENCH_sweeps.json (the
  // per-point "network" block) and whose wall time is the bench_network
  // phase of BENCH_perf.json.  Deterministic like every other point: a
  // pure function of its spec seed.
  exp::NetworkScenarioSpec net_spec;
  net_spec.name = "bench_network";
  exp::RunResult net_result;
  {
    obs::ScopedWallTimer timer(wall, "bench_network");
    net_result = exp::RunNetworkScenario(net_spec);
  }

  // The metro bench: one 64-cell network scenario run twice — serial, then
  // sharded over 8 worker threads.  The phase pair gates the parallel
  // Network's speedup in CI (tools/check_perf.py tiers the bound by the
  // `cores=` recorded in the perf provenance, so a 1-core artifact host
  // only proves overhead, not speedup) and doubles as a determinism
  // cross-check: both passes journal the measured window and must produce
  // bit-identical signatures, or the artifact write fails.
  exp::NetworkScenarioSpec metro_spec;
  metro_spec.name = "bench_metro";
  metro_spec.cells = 64;
  metro_spec.data_users_per_cell = 4;
  metro_spec.gps_users_per_cell = 1;
  metro_spec.measure_cycles = 60;
  exp::RunResult metro_result;
  std::uint64_t metro_signature[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    metro_spec.threads = pass == 0 ? 1 : 8;
    obs::RunJournal journal;  // declared before the run: cells point into it
    obs::ScopedWallTimer timer(
        wall, pass == 0 ? "bench_metro_serial" : "bench_metro_t8");
    exp::NetworkScenarioRun run(metro_spec);
    run.BuildPopulation();
    run.Warmup();
    run.network().AttachJournal(&journal);
    run.Measure();
    metro_result = run.Finish();
    metro_signature[pass] = journal.Signature();
  }
  if (metro_signature[0] != metro_signature[1]) {
    std::fprintf(stderr,
                 "bench_metro: serial/parallel journal signatures diverge "
                 "(%s vs %s); the deterministic barrier is broken\n",
                 obs::JournalHex(metro_signature[0]).c_str(),
                 obs::JournalHex(metro_signature[1]).c_str());
    return 1;
  }
  std::printf("bench_metro signature %s (threads 1 == threads 8)\n",
              obs::JournalHex(metro_signature[0]).c_str());

  // The head-to-head MAC matrix (opt-in): every policy over the same load
  // sweep, so the per-point SLO blocks and figure metrics compare MACs
  // under byte-identical scenarios.
  std::vector<exp::ScenarioSpec> matrix_specs;
  std::vector<exp::RunResult> matrix_results;
  if (mac_matrix) {
    for (const std::string& policy : mac::KnownMacPolicies()) {
      for (const double rho : exp::LoadSweep()) {
        exp::ScenarioSpec point = exp::LoadPoint(rho);
        point.name = "mac_" + policy + "_" + point.name;
        point.mac_policy = policy;
        matrix_specs.push_back(point);
      }
    }
    std::printf("running %zu mac-matrix points (jobs=%d)...\n",
                matrix_specs.size(), jobs);
    obs::ScopedWallTimer timer(wall, "bench_mac_matrix");
    matrix_results = exp::SweepRunner(jobs).Run(matrix_specs);
  }

  const obs::Stopwatch csv_watch;
  auto fig8 = Open(dir, "fig8_utilization_delay.csv");
  fig8 << "rho,offered,utilization,packet_delay_cycles,message_delay_cycles,"
          "p95_delay,drop_rate\n";
  auto fig9 = Open(dir, "fig9_collision_reservation.csv");
  fig9 << "rho,collision_probability,reservation_latency_cycles,collisions,"
          "reservation_packets,piggybacked\n";
  auto fig10 = Open(dir, "fig10_control_overhead.csv");
  fig10 << "rho,control_overhead,reservation_packets,data_packets\n";
  auto fig11 = Open(dir, "fig11_fairness.csv");
  fig11 << "rho,fairness_index\n";
  auto fig12a = Open(dir, "fig12a_cf2_gain.csv");
  fig12a << "rho,cf2_gain,utilization_with_cf2,utilization_without_cf2,"
            "last_slot_data_packets,data_packets_received\n";

  std::size_t next = 0;
  for (const double rho : exp::LoadSweep()) {
    const exp::RunResult& r = results[next++];
    const exp::RunResult& r_no = results[next++];

    fig8 << rho << ',' << r.offered_load << ',' << r.figure.utilization << ','
         << r.figure.mean_packet_delay_cycles << ','
         << r.figure.mean_message_delay_cycles << ','
         << r.figure.p95_packet_delay_cycles << ',' << r.figure.message_drop_rate
         << '\n';
    // piggybacked approximates the reservation updates that rode in data
    // headers instead of contending: every scheduled (non-contention) data
    // packet may carry one.
    fig9 << rho << ',' << r.figure.collision_probability << ','
         << r.figure.mean_reservation_latency << ',' << r.bs.collisions << ','
         << r.bs.reservation_packets_received << ','
         << r.bs.data_packets_received - r.bs.contention_data_received << '\n';
    fig10 << rho << ',' << r.figure.control_overhead << ','
          << r.bs.reservation_packets_received << ',' << r.bs.data_packets_received
          << '\n';
    fig11 << rho << ',' << r.figure.fairness_index << '\n';
    fig12a << rho << ',' << r.figure.second_cf_gain << ',' << r.figure.utilization
           << ',' << r_no.figure.utilization << ',' << r.bs.last_slot_data_packets
           << ',' << r.bs.data_packets_received << '\n';
  }

  auto fig12b = Open(dir, "fig12b_slot_usage.csv");
  fig12b << "rho,gps_users,dynamic,avg_data_slots_used\n";
  next = fig12b_begin;
  for (const double rho : exp::LoadSweep()) {
    for (const int gps : {1, 4}) {
      for (const bool dynamic : {true, false}) {
        fig12b << rho << ',' << gps << ',' << (dynamic ? 1 : 0) << ','
               << results[next++].figure.avg_data_slots_used << '\n';
      }
    }
  }

  auto grid = Open(dir, "robustness_grid.csv");
  grid << "data_users,gps_users,utilization,packet_delay_cycles,fairness,"
          "gps_max_access_s,collision_probability\n";
  next = grid_begin;
  for (const int data_users : {5, 8, 11, 14}) {
    for (const int gps_users : {1, 3, 4, 8}) {
      const exp::RunResult& r = results[next++];
      grid << data_users << ',' << gps_users << ',' << r.figure.utilization << ','
           << r.figure.mean_packet_delay_cycles << ',' << r.figure.fairness_index
           << ',' << r.figure.gps_access_delay_max_s << ','
           << r.figure.collision_probability << '\n';
    }
  }

  // The tables: Fig 8 averaged over seeds (mean and sample sd) and its
  // fixed-size arm, then the registration and ablation tables.
  next = tables_begin;
  auto fig8_reps = OpenTable(dir, "fig8_replications.csv",
                             "rho,offered,util,util_sd,pkt_delay,delay_sd,"
                             "msg_delay,drop_rate");
  for (const double rho : exp::LoadSweep()) {
    RunningStats offered, util, pkt_delay, msg_delay, drop;
    for (int rep = 0; rep < kFig8Replications; ++rep) {
      const exp::RunResult& r = results[next++];
      offered.Add(r.offered_load);
      util.Add(r.figure.utilization);
      pkt_delay.Add(r.figure.mean_packet_delay_cycles);
      msg_delay.Add(r.figure.mean_message_delay_cycles);
      drop.Add(r.figure.message_drop_rate);
    }
    fig8_reps << rho << ',' << offered.mean() << ',' << util.mean() << ','
              << util.stddev() << ',' << pkt_delay.mean() << ','
              << pkt_delay.stddev() << ',' << msg_delay.mean() << ','
              << drop.mean() << '\n';
  }

  auto fig8_fixed = OpenTable(dir, "fig8_fixed120.csv",
                              "rho,offered,util,pkt_delay,drop_rate");
  for (const double rho : exp::LoadSweep()) {
    const exp::RunResult& r = results[next++];
    fig8_fixed << rho << ',' << r.offered_load << ',' << r.figure.utilization
               << ',' << r.figure.mean_packet_delay_cycles << ','
               << r.figure.message_drop_rate << '\n';
  }

  // Registration latencies are in notification cycles.
  auto registration = OpenTable(dir, "registration_latency.csv",
                                "cell,background_rho,p50,p80,p99,max,n");
  for (int cell = 0; cell < 2; ++cell) {
    const exp::ScenarioSpec& spec = specs[next];
    const SampleSet latency = ChurnLatency(results[next++]);
    registration << spec.name << ',' << spec.workload.rho << ','
                 << latency.Median() << ',' << latency.Quantile(0.80) << ','
                 << latency.Quantile(0.99) << ',' << latency.Max() << ','
                 << latency.size() << '\n';
  }

  // Means over the storm's seeds, except max: the largest over all of them.
  auto contention = OpenTable(dir, "ablation_contention.csv",
                              "variant,p50,p90,max,registered,collisions");
  for (const bool dynamic : {true, false}) {
    double p50 = 0, p90 = 0, max = 0, registered = 0, collisions = 0;
    for (int rep = 0; rep < kStormRepeats; ++rep) {
      const exp::RunResult& r = results[next++];
      const SampleSet latency = ChurnLatency(r);
      p50 += latency.Median();
      p90 += latency.Quantile(0.9);
      max = std::max(max, latency.Max());
      registered += r.churn_registered;
      collisions += static_cast<double>(r.bs.collisions);
    }
    contention << (dynamic ? "dynamic" : "static") << ',' << p50 / kStormRepeats
               << ',' << p90 / kStormRepeats << ',' << max << ','
               << registered / kStormRepeats << ',' << collisions / kStormRepeats
               << '\n';
  }

  auto arq_table = OpenTable(dir, "ablation_arq.csv",
                             "up_rho,variant,dl_loss,rev_util,up_delay,retx,acks");
  for (const double rho : kArqUplinkRhos) {
    for (const bool arq : {false, true}) {
      const exp::RunResult& r = results[next++];
      arq_table << rho << ',' << (arq ? "arq" : "paper") << ',' << DownlinkLoss(r)
                << ',' << r.figure.utilization << ','
                << r.figure.mean_packet_delay_cycles << ','
                << r.bs.forward_retransmissions << ','
                << r.bs.forward_acks_received << '\n';
    }
  }

  auto erasures = OpenTable(dir, "ablation_erasures.csv",
                            "mean_fade_sym,gps_loss,gps_loss_ei,data_fail,"
                            "data_fail_ei");
  for (const double p_recover : kFadeRecoveryProbs) {
    const exp::RunResult& plain = results[next++];
    const exp::RunResult& with_ei = results[next++];
    erasures << 1.0 / p_recover << ',' << GpsLoss(plain) << ','
             << GpsLoss(with_ei) << ',' << plain.bs.decode_failures << ','
             << with_ei.bs.decode_failures << '\n';
  }

  if (mac_matrix) {
    auto matrix = Open(dir, "mac_matrix.csv");
    matrix << "policy,rho,offered,utilization,gps_miss_rate,gps_p99_s,"
              "fairness,drop_rate\n";
    next = 0;
    for (const std::string& policy : mac::KnownMacPolicies()) {
      for (const double rho : exp::LoadSweep()) {
        const exp::RunResult& r = matrix_results[next++];
        const obs::SloClassSummary& gps =
            r.slo[static_cast<std::size_t>(obs::SloClass::kGpsAccess)];
        const double miss_rate =
            gps.count > 0
                ? static_cast<double>(gps.misses) / static_cast<double>(gps.count)
                : 0.0;
        matrix << policy << ',' << rho << ',' << r.offered_load << ','
               << r.figure.utilization << ',' << miss_rate << ',' << gps.p99
               << ',' << r.figure.fairness_index << ','
               << r.figure.message_drop_rate << '\n';
      }
    }
  }

  wall.timer("write_csv").Add(csv_watch.Seconds());

  {
    obs::ScopedWallTimer timer(wall, "write_sweeps_json");
    // The network point joins the emitted list here (after the figure CSVs,
    // which index `results` by position) under a placeholder spec that
    // mirrors the network run's shape.
    specs.insert(specs.end(), matrix_specs.begin(), matrix_specs.end());
    results.insert(results.end(), matrix_results.begin(), matrix_results.end());
    exp::ScenarioSpec net_placeholder;
    net_placeholder.name = net_spec.name;
    net_placeholder.seed = net_spec.seed;
    net_placeholder.workload.rho = 0.0;
    net_placeholder.data_users = net_spec.data_users_per_cell;
    net_placeholder.gps_users = net_spec.gps_users_per_cell;
    net_placeholder.warmup_cycles = net_spec.warmup_cycles;
    net_placeholder.measure_cycles = net_spec.measure_cycles;
    specs.push_back(net_placeholder);
    results.push_back(net_result);
    exp::ScenarioSpec metro_placeholder;
    metro_placeholder.name = metro_spec.name;
    metro_placeholder.seed = metro_spec.seed;
    metro_placeholder.workload.rho = 0.0;
    metro_placeholder.data_users = metro_spec.data_users_per_cell;
    metro_placeholder.gps_users = metro_spec.gps_users_per_cell;
    metro_placeholder.warmup_cycles = metro_spec.warmup_cycles;
    metro_placeholder.measure_cycles = metro_spec.measure_cycles;
    specs.push_back(metro_placeholder);
    results.push_back(metro_result);
    auto sweeps = Open(dir, "BENCH_sweeps.json");
    exp::WriteSweepJson(sweeps, "make_figures", jobs, wall_seconds, specs,
                        results);
  }

  // The merged run journal: every journaled point contributes its digest
  // chain under its point index as the journal "cell" id, so one JSONL
  // carries the whole sweep and osumac_diff.py can name both the divergent
  // cycle and the divergent point.  The provenance deliberately omits the
  // job count: two runs of the same build at different --jobs must produce
  // byte-identical files.
  if (!no_journal) {
    obs::RunJournal merged;
    for (std::size_t i = 0; i < journaled_results.size(); ++i) {
      const std::shared_ptr<const obs::RunJournal>& j =
          journaled_results[i].journal;
      if (j == nullptr || j->cells().empty()) continue;
      obs::CellJournal& cj = merged.AddCell(static_cast<int>(i));
      for (const obs::JournalRecord& rec : j->cells().front()->records()) {
        cj.Append(rec);
      }
    }
    const std::string journal_path = (dir / "RUN_journal.jsonl").string();
    if (!obs::WriteJournalJsonl(
            merged, journal_path,
            obs::ProvenanceLine("make_figures", 0,
                                "phase=sweep_journaled every=1"))) {
      std::fprintf(stderr, "cannot open %s\n", journal_path.c_str());
      return 1;
    }
    std::printf("journal signature %s -> %s\n",
                obs::JournalHex(merged.Signature()).c_str(),
                journal_path.c_str());
  }

  // The perf trajectory: one phase entry per stage above, %.17g seconds.
  // tools/check_perf.py validates the schema and phase coverage in CI.
  // `cores=` records the host's parallelism so the bench_metro speedup
  // gate can tier its bound: a 1-core artifact host cannot demonstrate a
  // 3x speedup, only bounded overhead.
  auto perf = Open(dir, "BENCH_perf.json");
  obs::WriteWallTimersJson(
      perf, wall,
      obs::ProvenanceLine("make_figures", 0,
                          "jobs=" + std::to_string(jobs) +
                              " points=" + std::to_string(specs.size()) +
                              " cores=" + std::to_string(ResolveParallelism(0))));

  // Perf-trajectory history: append this run's per-phase wall-clocks to
  // bench/history.jsonl when running from a repo checkout.  The marker is
  // bench/CMakeLists.txt, not the bare directory — a CMake build tree has
  // its own bench/ binary dir, and history must not leak into it.  A build
  // of a dirty tree appends nothing: its numbers belong to no commit (the
  // rule tools/check_perf.py applies to BENCH_perf.json).  One append-only
  // JSONL line per run; tools/plot_figures.py charts the trajectory.
  const bool in_checkout = std::filesystem::exists("bench/CMakeLists.txt");
  const bool dirty_build =
      std::string(obs::BuildVersion()).find("-dirty") != std::string::npos;
  if (in_checkout && dirty_build) {
    std::printf("dirty-tree build (version=%s): bench/history.jsonl not appended\n",
                obs::BuildVersion());
  } else if (in_checkout) {
    std::ofstream history("bench/history.jsonl", std::ios::app);
    if (history) {
      history << "{\"provenance\": \""
              << obs::ProvenanceLine("make_figures", 0,
                                     "jobs=" + std::to_string(jobs))
              << "\", \"phases\": {";
      bool first = true;
      for (const auto& [name, stats] : wall.timers()) {
        char seconds[40];
        std::snprintf(seconds, sizeof seconds, "%.17g", stats.sum());
        history << (first ? "" : ", ") << '"' << name << "\": " << seconds;
        first = false;
      }
      history << "}}\n";
      std::printf("appended perf history -> bench/history.jsonl\n");
    }
  }

  std::printf("wrote CSVs + BENCH_sweeps.json + BENCH_perf.json to %s (%.1f s) "
              "— plot with tools/plot_figures.py\n",
              dir.c_str(), wall_seconds);
  return 0;
}
