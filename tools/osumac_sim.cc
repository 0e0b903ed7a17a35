// osumac_sim — configurable command-line front end to the simulator.
//
//   $ osumac_sim --rho 0.8 --data-users 12 --gps 4 --cycles 1000
//                --channel uniform --ser 0.02 --seed 7
//   $ osumac_sim --scenario sweeps.scn --jobs 8 --out sweeps.json
//
// Single-run mode builds one declarative scenario (src/exp) from the
// flags, drives it through the engine's phases, and prints the full
// Section-5 metric set; --audit/--trace/--metrics/--profile attach their
// instrumentation to the live cell between phases.  Scenario mode
// (--scenario FILE) parses a scenario file, executes every spec on the
// sweep runner (--jobs N workers, bit-identical at any N), and emits the
// results as CSV (default) or the BENCH_sweeps.json format (--out *.json).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "osumac/osumac.h"

using namespace osumac;

namespace {

struct Options {
  double rho = 0.7;
  int data_users = 10;
  int gps_users = 4;
  int cycles = 500;
  int warmup = 50;
  std::uint64_t seed = 1;
  std::string channel = "perfect";
  double ser = 0.02;
  bool arq = false;
  bool no_second_cf = false;
  bool static_gps = false;
  bool static_contention = false;
  std::string mac = "osu";
  int fixed_size = 0;  ///< 0 = uniform 40..500
  double downlink_rho = 0.0;
  bool audit = false;
  bool slo = false;
  std::string trace_file;
  bool trace_format_set = false;
  std::string trace_format = "chrome";
  std::string metrics_file;
  std::string flight_dir;
  int flight_cycles = 64;
  bool flight_cycles_set = false;
  bool flight_dump_on_exit = false;
  std::string journal_file;
  int journal_every = 1;
  bool journal_every_set = false;
  std::string journal_expect_file;
  int fault_cycle = 0;
  bool fault_cycle_set = false;
  std::string scenario_file;
  std::string out_file;
  int jobs = 1;
  int cells = 0;  ///< 0 = single-cell mode; N >= 2 = network mode
  int threads = 1;
  bool threads_set = false;
  std::string profile_file;
  bool profile_format_set = false;
  std::string profile_format = "speedscope";
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: osumac_sim [options]\n"
      "  --rho X             reverse-channel load index (default 0.7)\n"
      "  --data-users N      non-real-time subscribers (default 10)\n"
      "  --gps N             GPS buses, 0..8 (default 4)\n"
      "  --cycles N          measured notification cycles (default 500)\n"
      "  --warmup N          warm-up cycles excluded from stats (default 50)\n"
      "  --seed N            RNG seed (default 1)\n"
      "  --channel KIND      perfect | uniform | ge (default perfect)\n"
      "  --ser P             symbol error probability for 'uniform'\n"
      "  --fixed-size B      fixed message size in bytes (default: uniform 40-500)\n"
      "  --downlink-rho X    also drive downlink e-mail at this load\n"
      "  --arq               enable the downlink ARQ extension\n"
      "  --no-second-cf      ablation: disable the second control fields\n"
      "  --static-gps        ablation: disable dynamic GPS slot adjustment\n"
      "  --static-contention ablation: fixed number of contention slots\n"
      "  --mac NAME          MAC policy: osu | rqma | pca (default osu);\n"
      "                      non-osu tenants run on the generic PolicyCell\n"
      "                      driver (see docs/MAC_POLICIES.md)\n"
      "  --audit             run the protocol-invariant auditor alongside\n"
      "  --trace FILE        record the measured cycles as a structured event\n"
      "                      trace and write it to FILE\n"
      "  --trace-format F    chrome | jsonl | timeline (default chrome)\n"
      "  --metrics FILE      dump the full metrics registry (.json for JSON,\n"
      "                      anything else for CSV)\n"
      "  --slo               print the QoS/SLO report (per-class percentiles\n"
      "                      and budget misses) after the run\n"
      "  --flight-dir DIR    arm the flight recorder: on an audit violation\n"
      "                      or SLO budget miss, dump the retained event and\n"
      "                      metrics window to DIR (see docs/OBSERVABILITY.md)\n"
      "  --flight-cycles N   metrics snapshots the recorder retains\n"
      "                      (default 64; requires --flight-dir)\n"
      "  --flight-dump-on-exit  also dump at run end if nothing tripped\n"
      "                      (requires --flight-dir)\n"
      "  --journal FILE      record the per-cycle digest journal over the\n"
      "                      measured cycles and write it as JSONL to FILE\n"
      "                      (diff two runs with tools/osumac_diff.py)\n"
      "  --journal-every N   journal every N-th cycle (default 1; requires\n"
      "                      --journal or --journal-expect)\n"
      "  --journal-expect REF  compare the live run against a reference\n"
      "                      journal JSONL as it executes; the first\n"
      "                      divergent cycle trips the flight recorder (if\n"
      "                      armed) and the run exits 3\n"
      "  --fault-cycle N     fault injection: perturb the cell RNG stream at\n"
      "                      the start of absolute cycle N (the journal\n"
      "                      record for N is untouched; N+1 diverges)\n"
      "  --cells N           network mode: run N cells in lockstep with\n"
      "                      random-walk mobility and cross-cell chatter;\n"
      "                      --data-users/--gps become per-cell populations\n"
      "                      and the report shows backbone/handoff counters\n"
      "                      plus the merged network SLO rollup\n"
      "  --threads N         network mode: shard the lockstep loop over N\n"
      "                      worker threads (0 = all cores, default 1;\n"
      "                      deterministic — journals and counters are\n"
      "                      bit-identical at any N; requires --cells)\n"
      "  --profile FILE      self-profile the run (obs::Profiler zones over\n"
      "                      the cycle pipeline) and write the result to FILE\n"
      "  --profile-format F  speedscope | collapsed | chrome | report\n"
      "                      (default speedscope; requires --profile)\n"
      "  --scenario FILE     sweep mode: run every scenario in FILE (see\n"
      "                      docs/SCENARIOS.md for the format)\n"
      "  --jobs N            sweep worker threads (0 = all cores, default 1;\n"
      "                      results are bit-identical at any N)\n"
      "  --out FILE          sweep results to FILE: .json for the\n"
      "                      BENCH_sweeps.json format, else CSV (default:\n"
      "                      CSV on stdout)\n"
      "Options also accept --opt=value form.\n"
      "Single-run instrumentation (--audit/--trace/--metrics/--slo/\n"
      "--flight-*) attaches to one live cell and cannot be combined with\n"
      "--scenario sweep mode; sweep results carry their SLO digests in the\n"
      "JSON output instead.\n");
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept --opt=value as well as --opt value.
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.erase(eq);
        has_inline = true;
      }
    }
    auto next_string = [&](std::string& out) {
      if (has_inline) {
        out = inline_value;
        return true;
      }
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    auto next_value = [&](double& out) {
      std::string s;
      if (!next_string(s)) return false;
      out = std::atof(s.c_str());
      return true;
    };
    auto next_int = [&](int& out) {
      std::string s;
      if (!next_string(s)) return false;
      out = std::atoi(s.c_str());
      return true;
    };
    if (arg == "--rho") {
      if (!next_value(opt.rho)) return false;
    } else if (arg == "--data-users") {
      if (!next_int(opt.data_users)) return false;
    } else if (arg == "--gps") {
      if (!next_int(opt.gps_users)) return false;
    } else if (arg == "--cycles") {
      if (!next_int(opt.cycles)) return false;
    } else if (arg == "--warmup") {
      if (!next_int(opt.warmup)) return false;
    } else if (arg == "--seed") {
      int s = 0;
      if (!next_int(s)) return false;
      opt.seed = static_cast<std::uint64_t>(s);
    } else if (arg == "--channel") {
      if (!next_string(opt.channel)) return false;
    } else if (arg == "--ser") {
      if (!next_value(opt.ser)) return false;
    } else if (arg == "--fixed-size") {
      if (!next_int(opt.fixed_size)) return false;
    } else if (arg == "--downlink-rho") {
      if (!next_value(opt.downlink_rho)) return false;
    } else if (arg == "--arq") {
      opt.arq = true;
    } else if (arg == "--no-second-cf") {
      opt.no_second_cf = true;
    } else if (arg == "--static-gps") {
      opt.static_gps = true;
    } else if (arg == "--static-contention") {
      opt.static_contention = true;
    } else if (arg == "--mac") {
      if (!next_string(opt.mac)) return false;
    } else if (arg == "--audit") {
      opt.audit = true;
    } else if (arg == "--trace") {
      if (!next_string(opt.trace_file)) return false;
    } else if (arg == "--trace-format") {
      if (!next_string(opt.trace_format)) return false;
      opt.trace_format_set = true;
    } else if (arg == "--metrics") {
      if (!next_string(opt.metrics_file)) return false;
    } else if (arg == "--slo") {
      opt.slo = true;
    } else if (arg == "--flight-dir") {
      if (!next_string(opt.flight_dir)) return false;
    } else if (arg == "--flight-cycles") {
      if (!next_int(opt.flight_cycles)) return false;
      opt.flight_cycles_set = true;
    } else if (arg == "--flight-dump-on-exit") {
      opt.flight_dump_on_exit = true;
    } else if (arg == "--journal") {
      if (!next_string(opt.journal_file)) return false;
    } else if (arg == "--journal-every") {
      if (!next_int(opt.journal_every)) return false;
      opt.journal_every_set = true;
    } else if (arg == "--journal-expect") {
      if (!next_string(opt.journal_expect_file)) return false;
    } else if (arg == "--fault-cycle") {
      if (!next_int(opt.fault_cycle)) return false;
      opt.fault_cycle_set = true;
    } else if (arg == "--cells") {
      if (!next_int(opt.cells)) return false;
    } else if (arg == "--threads") {
      if (!next_int(opt.threads)) return false;
      opt.threads_set = true;
    } else if (arg == "--profile") {
      if (!next_string(opt.profile_file)) return false;
    } else if (arg == "--profile-format") {
      if (!next_string(opt.profile_format)) return false;
      opt.profile_format_set = true;
    } else if (arg == "--scenario") {
      if (!next_string(opt.scenario_file)) return false;
    } else if (arg == "--out") {
      if (!next_string(opt.out_file)) return false;
    } else if (arg == "--jobs" || arg == "-j") {
      if (!next_int(opt.jobs)) return false;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// The single-run scenario implied by the command-line flags.
exp::ScenarioSpec SpecFromOptions(const Options& opt, std::string* error) {
  exp::ScenarioSpec spec;
  spec.name = "osumac_sim";
  spec.data_users = opt.data_users;
  spec.gps_users = opt.gps_users;
  spec.registration_cycles = 12;
  spec.warmup_cycles = opt.warmup;
  spec.measure_cycles = opt.cycles;
  spec.seed = opt.seed;
  spec.workload.rho = opt.rho;
  spec.workload.sizes = opt.fixed_size > 0
                            ? traffic::SizeDistribution::Fixed(opt.fixed_size)
                            : traffic::SizeDistribution::Uniform(40, 500);
  spec.workload.downlink_rho = opt.downlink_rho;
  spec.workload.downlink_sizes = spec.workload.sizes;
  spec.mac.downlink_arq = opt.arq;
  spec.mac.use_second_control_field = !opt.no_second_cf;
  spec.mac.dynamic_gps_slots = !opt.static_gps;
  spec.mac.dynamic_contention_slots = !opt.static_contention;
  spec.mac_policy = opt.mac;
  if (opt.channel == "uniform") {
    spec.forward.kind = mac::ChannelModelConfig::Kind::kUniform;
    spec.forward.symbol_error_prob = opt.ser / 2;  // stronger BS transmitter
    spec.reverse.kind = mac::ChannelModelConfig::Kind::kUniform;
    spec.reverse.symbol_error_prob = opt.ser;
  } else if (opt.channel == "ge") {
    spec.forward.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
    spec.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  } else if (opt.channel != "perfect") {
    *error = "unknown channel kind '" + opt.channel + "'";
  }
  return spec;
}

/// Sweep mode: parse the scenario file, run it, emit CSV or JSON.
int RunSweep(const Options& opt) {
  std::ifstream in(opt.scenario_file);
  if (!in) {
    std::fprintf(stderr, "cannot open scenario file '%s'\n",
                 opt.scenario_file.c_str());
    return 1;
  }
  std::string error;
  const std::vector<exp::ScenarioSpec> specs = exp::ParseScenarios(in, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", opt.scenario_file.c_str(), error.c_str());
    return 1;
  }
  const exp::SweepRunner runner(opt.jobs);
  std::fprintf(stderr, "running %zu scenarios on %d workers...\n", specs.size(),
               runner.jobs());
  const obs::Stopwatch stopwatch;
  const std::vector<exp::RunResult> results = runner.Run(specs);
  const double wall_seconds = stopwatch.Seconds();

  const bool json = opt.out_file.size() >= 5 &&
                    opt.out_file.rfind(".json") == opt.out_file.size() - 5;
  if (opt.out_file.empty()) {
    exp::WriteSweepCsv(std::cout, specs, results);
  } else {
    std::ofstream out(opt.out_file);
    if (!out) {
      std::fprintf(stderr, "cannot open output file '%s'\n", opt.out_file.c_str());
      return 1;
    }
    if (json) {
      exp::WriteSweepJson(out, "osumac_sim", runner.jobs(), wall_seconds, specs,
                          results);
    } else {
      exp::WriteSweepCsv(out, specs, results);
    }
    std::fprintf(stderr, "wrote %zu points -> %s (%s, %.1f s)\n", results.size(),
                 opt.out_file.c_str(), json ? "json" : "csv", wall_seconds);
  }
  return 0;
}

/// Writes the recorded zone tree to opt.profile_file in the selected
/// format.  Returns false (with a message) when the file cannot be opened.
bool WriteProfileFile(const Options& opt, const obs::Profiler& profiler,
                      const std::string& provenance) {
  std::ofstream out(opt.profile_file);
  if (!out) {
    std::fprintf(stderr, "cannot open profile file '%s'\n",
                 opt.profile_file.c_str());
    return false;
  }
  if (opt.profile_format == "speedscope") {
    obs::WriteSpeedscope(out, profiler, "osumac_sim");
  } else if (opt.profile_format == "collapsed") {
    obs::WriteCollapsed(out, profiler);
  } else if (opt.profile_format == "chrome") {
    obs::WriteChromeTraceProfile(out, profiler, provenance);
  } else {
    obs::WriteProfileReport(out, profiler);
  }
  std::printf("profile                -> %s (%s)\n", opt.profile_file.c_str(),
              opt.profile_format.c_str());
  if (profiler.empty()) {
    std::printf("profile                (empty: built with -DOSUMAC_PROFILER=OFF?)\n");
  }
  return true;
}

/// Dumps `registry` to `path`: JSON when the name ends in .json, CSV
/// otherwise.  `scope` annotates the summary line (e.g. "; mac.rqma.*").
/// Returns false (with a message) when the file cannot be opened.
bool WriteMetricsFile(const std::string& path, const obs::MetricsRegistry& registry,
                      const std::string& scope) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open metrics file '%s'\n", path.c_str());
    return false;
  }
  const bool json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  if (json) {
    registry.WriteJson(out);
  } else {
    registry.WriteCsv(out);
  }
  std::printf("metrics                -> %s (%s%s)\n", path.c_str(),
              json ? "json" : "csv", scope.c_str());
  return true;
}

/// Writes a single-cell run journal to opt.journal_file.  Returns false
/// (with a message) when the file cannot be written.
bool WriteJournalFile(const Options& opt, const obs::RunJournal& journal,
                      const std::string& provenance) {
  if (!obs::WriteJournalJsonl(journal, opt.journal_file, provenance)) {
    std::fprintf(stderr, "cannot open journal file '%s'\n",
                 opt.journal_file.c_str());
    return false;
  }
  std::printf("journal                %8lld records -> %s (every %d, signature %s)\n",
              static_cast<long long>(journal.cells().front()->recorded()),
              opt.journal_file.c_str(), journal.every(),
              obs::JournalHex(journal.Signature()).c_str());
  return true;
}

/// The Section-5 metric block of a single-cell run.  Policy tenants report
/// the policy-agnostic subset (no reservation latency, control overhead or
/// second-CF gain; drops are policy deadline drops).
void PrintFigureReport(const Options& opt, const exp::RunResult& result) {
  const bool osu = opt.mac == "osu";
  const metrics::FigureMetrics& m = result.figure;
  const mac::BsCounters& bs = result.bs;
  const std::string tenant = osu ? "" : "mac=" + opt.mac + " ";
  std::printf("==== osumac_sim: %srho=%.2f users=%d gps=%d cycles=%d channel=%s ====\n",
              tenant.c_str(), opt.rho, opt.data_users, opt.gps_users, opt.cycles,
              opt.channel.c_str());
  std::printf("utilization            %8.3f\n", m.utilization);
  std::printf("packet delay           %8.2f cycles (p95 %.2f)\n",
              m.mean_packet_delay_cycles, m.p95_packet_delay_cycles);
  std::printf("message delay          %8.2f cycles\n", m.mean_message_delay_cycles);
  std::printf("collision probability  %8.3f\n", m.collision_probability);
  if (osu) {
    std::printf("reservation latency    %8.2f cycles\n", m.mean_reservation_latency);
    std::printf("control overhead       %8.3f\n", m.control_overhead);
  }
  std::printf("fairness (Jain)        %8.4f\n", m.fairness_index);
  if (osu) std::printf("2nd-CF gain            %8.1f%%\n", 100 * m.second_cf_gain);
  std::printf("data slots used        %8.2f per cycle\n", m.avg_data_slots_used);
  std::printf("drop rate              %8.3f%s\n", m.message_drop_rate,
              osu ? "" : " (policy deadline drops)");
  if (opt.gps_users > 0) {
    std::printf("GPS max access delay   %8.2f s (bound 4 s)\n", m.gps_access_delay_max_s);
    std::printf("GPS reports/bus/cycle  %8.3f\n", m.gps_reports_per_bus_per_cycle);
  }
  if (osu && (bs.decode_failures > 0 || bs.gps_packets_failed > 0)) {
    std::printf("uplink decode failures %8lld (+%lld GPS)\n",
                static_cast<long long>(bs.decode_failures),
                static_cast<long long>(bs.gps_packets_failed));
  } else if (!osu && bs.decode_failures > 0) {
    std::printf("uplink decode failures %8lld\n",
                static_cast<long long>(bs.decode_failures));
  }
  if (opt.downlink_rho > 0) {
    std::printf("downlink msg delay     %8.2f cycles, lost packets %lld, retx %lld\n",
                result.downlink_mean_delay_cycles,
                static_cast<long long>(result.forward_packets_lost),
                static_cast<long long>(bs.forward_retransmissions));
  }
}

/// Network mode (--cells N): run N cells in lockstep with mobility and
/// cross-cell chatter, then print the backbone counters and the merged
/// network SLO rollup.
int RunNetwork(const Options& opt, const std::string& provenance) {
  exp::NetworkScenarioSpec spec;
  spec.name = "osumac_sim_network";
  spec.cells = opt.cells;
  spec.data_users_per_cell = opt.data_users;
  spec.gps_users_per_cell = opt.gps_users;
  spec.warmup_cycles = opt.warmup;
  spec.measure_cycles = opt.cycles;
  spec.seed = opt.seed;
  spec.threads = exp::ResolveJobs(opt.threads);
  spec.mac.downlink_arq = opt.arq;
  spec.mac.use_second_control_field = !opt.no_second_cf;
  spec.mac.dynamic_gps_slots = !opt.static_gps;
  spec.mac.dynamic_contention_slots = !opt.static_contention;

  exp::NetworkScenarioRun run(spec);
  obs::Profiler profiler;
  obs::CellJournal::Config journal_config;
  journal_config.every = opt.journal_every;
  obs::RunJournal journal(journal_config);
  exp::RunResult result;
  {
    // Install for the whole run so every phase's zones aggregate into one
    // tree; the scope closes before export (exports require closed zones).
    const obs::Profiler::ThreadScope scope(
        opt.profile_file.empty() ? nullptr : &profiler);
    run.BuildPopulation();
    run.Warmup();
    // Same warm-up boundary as the single-cell path: every cell journals
    // its own thread-confined slice over exactly the measured window.
    if (!opt.journal_file.empty()) run.network().AttachJournal(&journal);
    run.Measure();
    result = run.Finish();
  }

  std::printf(
      "==== osumac_sim: cells=%d users/cell=%d gps/cell=%d cycles=%d "
      "threads=%d ====\n",
      opt.cells, opt.data_users, opt.gps_users, opt.cycles, spec.threads);
  std::printf("subscribers            %8d\n", result.network.subscribers);
  std::printf("measured cycles        %8lld per cell\n",
              static_cast<long long>(result.measured_cycles));
  std::printf("messages attempted     %8lld\n",
              static_cast<long long>(result.uplink_messages_offered));
  std::printf("backbone routed        %8lld\n",
              static_cast<long long>(result.network.backbone_messages));
  std::printf("backbone unrouted      %8lld\n",
              static_cast<long long>(result.network.backbone_unrouted));
  std::printf("handoffs               %8lld\n",
              static_cast<long long>(result.network.handoffs));

  if (!opt.metrics_file.empty()) {
    obs::MetricsRegistry registry;
    metrics::RegisterNetworkMetrics(registry, run.network());
    if (!WriteMetricsFile(opt.metrics_file, registry, "; cell.<i>.* + net.*")) {
      return 1;
    }
  }
  if (opt.slo) {
    std::printf("--- network SLO rollup (%d cells merged) ---\n",
                result.network.cells);
    run.network().SloRollup().WriteReport(std::cout);
  }
  if (!opt.journal_file.empty()) {
    if (!obs::WriteJournalJsonl(journal, opt.journal_file, provenance)) {
      std::fprintf(stderr, "cannot open journal file '%s'\n",
                   opt.journal_file.c_str());
      return 1;
    }
    std::printf("journal                -> %s (%zu cells, every %d, signature %s)\n",
                opt.journal_file.c_str(), journal.cells().size(),
                journal.every(), obs::JournalHex(journal.Signature()).c_str());
  }
  if (!opt.profile_file.empty() &&
      !WriteProfileFile(opt, profiler, provenance)) {
    return 1;
  }
  return 0;
}

/// Single-run path for a non-OSU MAC policy (--mac rqma|pca): the same
/// scenario phases on the generic PolicyCell driver, audited by the
/// per-carrier PolicyAuditor.
int RunPolicy(const Options& opt, const exp::ScenarioSpec& spec,
              const std::string& provenance) {
  exp::ScenarioRun run(spec);
  mac::PolicyCell& cell = *run.policy_cell();
  analysis::PolicyAuditor auditor;
  if (opt.audit) cell.AddObserver(&auditor);
  obs::Profiler profiler;
  exp::RunResult result;
  {
    const obs::Profiler::ThreadScope profile_scope(
        opt.profile_file.empty() ? nullptr : &profiler);
    result = run.Execute();
  }

  PrintFigureReport(opt, result);
  if (!opt.journal_file.empty() &&
      !WriteJournalFile(opt, *result.journal, provenance)) {
    return 1;
  }
  if (!opt.metrics_file.empty()) {
    obs::MetricsRegistry registry;
    metrics::RegisterPolicyCellMetrics(registry, cell);
    if (!WriteMetricsFile(opt.metrics_file, registry, "; mac." + opt.mac + ".*")) {
      return 1;
    }
  }
  if (opt.slo) cell.slo().WriteReport(std::cout);
  if (!opt.profile_file.empty() &&
      !WriteProfileFile(opt, profiler, provenance)) {
    return 1;
  }
  if (opt.audit) {
    std::printf("audit                  %s\n", auditor.Report().c_str());
    if (!auditor.violations().empty()) return 2;
  }
  return 0;
}

/// Flag-composition rules, checked up front so a conflicting invocation
/// errors out instead of silently ignoring instrumentation flags (the old
/// behavior: sweep mode dropped --trace/--metrics/--audit on the floor).
/// Returns an error message, or "" if the combination is valid.
std::string ValidateFlagComposition(const Options& opt) {
  if (!mac::IsKnownMacPolicy(opt.mac)) {
    return "unknown MAC policy '" + opt.mac +
           "' (expected one of: osu, rqma, pca)";
  }
  if (!(opt.ser >= 0.0 && opt.ser <= 1.0)) {
    return "--ser must be a probability in [0, 1]";
  }
  if (opt.cycles < 0) return "--cycles must be >= 0";
  if (opt.warmup < 0) return "--warmup must be >= 0";
  if (opt.mac != "osu") {
    if (opt.cells != 0) {
      return "--mac runs one policy cell; --cells network mode is OSU-only "
             "(cross-cell signalling rides on the OSU control fields)";
    }
    if (!opt.scenario_file.empty()) {
      return "--mac shapes the single-run spec; scenario files select a "
             "policy per spec with the 'mac' key instead (docs/SCENARIOS.md)";
    }
    const char* conflicting = nullptr;
    if (!opt.trace_file.empty()) conflicting = "--trace";
    else if (opt.trace_format_set) conflicting = "--trace-format";
    else if (!opt.flight_dir.empty()) conflicting = "--flight-dir";
    else if (opt.flight_cycles_set) conflicting = "--flight-cycles";
    else if (opt.flight_dump_on_exit) conflicting = "--flight-dump-on-exit";
    if (conflicting != nullptr) {
      return std::string(conflicting) +
             " records the OSU cell's event stream; policy tenants (--mac) "
             "do not emit one (supported there: --audit, --metrics, --slo, "
             "--profile, --journal)";
    }
    if (!opt.journal_expect_file.empty()) {
      return "--journal-expect compares against the live OSU cell and is not "
             "supported with --mac (policy runs can still record with "
             "--journal and diff offline via tools/osumac_diff.py)";
    }
    if (opt.fault_cycle_set) {
      return "--fault-cycle perturbs the OSU cell's RNG stream; policy "
             "tenants (--mac) draw from the policy seed stream instead";
    }
    // --downlink-rho, --arq, --no-second-cf, --static-gps and
    // --static-contention set the spec's OSU-only inputs.
    std::string ignored;
    const std::string tenant_error =
        exp::TenantInputError(SpecFromOptions(opt, &ignored));
    if (!tenant_error.empty()) return "--mac " + opt.mac + ": " + tenant_error;
  }
  if (!opt.scenario_file.empty()) {
    const char* conflicting = nullptr;
    if (!opt.trace_file.empty()) conflicting = "--trace";
    else if (opt.trace_format_set) conflicting = "--trace-format";
    else if (!opt.metrics_file.empty()) conflicting = "--metrics";
    else if (opt.audit) conflicting = "--audit";
    else if (opt.slo) conflicting = "--slo";
    else if (!opt.flight_dir.empty()) conflicting = "--flight-dir";
    else if (opt.flight_cycles_set) conflicting = "--flight-cycles";
    else if (opt.flight_dump_on_exit) conflicting = "--flight-dump-on-exit";
    else if (!opt.journal_file.empty()) conflicting = "--journal";
    else if (opt.journal_every_set) conflicting = "--journal-every";
    else if (!opt.journal_expect_file.empty()) conflicting = "--journal-expect";
    else if (opt.fault_cycle_set) conflicting = "--fault-cycle";
    if (conflicting != nullptr) {
      return std::string(conflicting) +
             " attaches to a single live cell and cannot be combined with "
             "--scenario sweep mode (sweep JSON output carries per-point SLO "
             "digests instead, and journal signatures when a spec sets "
             "journal_every)";
    }
  }
  if (!opt.scenario_file.empty() && !opt.profile_file.empty()) {
    return "--profile attaches to the serial single-run (or network) path; "
           "sweep workers run unprofiled so results stay bit-identical at "
           "any --jobs";
  }
  if (opt.cells != 0) {
    if (opt.cells < 2) return "--cells needs at least 2 cells";
    const char* conflicting = nullptr;
    if (!opt.scenario_file.empty()) conflicting = "--scenario";
    else if (!opt.trace_file.empty()) conflicting = "--trace";
    else if (opt.trace_format_set) conflicting = "--trace-format";
    else if (opt.audit) conflicting = "--audit";
    else if (!opt.flight_dir.empty()) conflicting = "--flight-dir";
    else if (opt.flight_cycles_set) conflicting = "--flight-cycles";
    else if (opt.flight_dump_on_exit) conflicting = "--flight-dump-on-exit";
    if (conflicting != nullptr) {
      return std::string(conflicting) +
             " attaches to a single live cell and cannot be combined with "
             "--cells network mode (supported there: --metrics, --slo, "
             "--profile, --journal)";
    }
    if (!opt.journal_expect_file.empty()) {
      return "--journal-expect compares one live cell against a reference; "
             "record network journals with --journal and diff offline via "
             "tools/osumac_diff.py";
    }
    if (opt.fault_cycle_set) {
      return "--fault-cycle perturbs a single cell's RNG stream and cannot "
             "be combined with --cells network mode";
    }
    if (opt.channel != "perfect") {
      return "--cells network mode currently runs perfect channels only";
    }
    if (opt.downlink_rho > 0) {
      return "--downlink-rho drives a single cell's downlink; network mode "
             "generates its own cross-cell chatter instead";
    }
    if (opt.threads_set) {
      if (opt.threads < 0) return "--threads must be >= 0 (0 = all cores)";
      if (opt.threads != 1 && !opt.profile_file.empty()) {
        return "--profile zones are thread-local and worker cells would "
               "profile into the void; use --threads 1 with --profile";
      }
    }
  }
  if (opt.threads_set && opt.cells == 0) {
    return "--threads shards the --cells lockstep loop; single-cell runs "
           "are serial (use --jobs for sweep parallelism)";
  }
  if (opt.trace_format_set && opt.trace_file.empty()) {
    return "--trace-format requires --trace FILE";
  }
  if (opt.profile_format_set && opt.profile_file.empty()) {
    return "--profile-format requires --profile FILE";
  }
  if (opt.flight_dir.empty()) {
    if (opt.flight_cycles_set) return "--flight-cycles requires --flight-dir DIR";
    if (opt.flight_dump_on_exit) {
      return "--flight-dump-on-exit requires --flight-dir DIR";
    }
  }
  if (opt.flight_cycles_set && opt.flight_cycles < 1) {
    return "--flight-cycles must be >= 1";
  }
  if (opt.journal_every_set) {
    if (opt.journal_file.empty() && opt.journal_expect_file.empty()) {
      return "--journal-every requires --journal FILE or --journal-expect REF";
    }
    if (opt.journal_every < 1) return "--journal-every must be >= 1";
  }
  if (opt.fault_cycle_set && opt.fault_cycle < 0) {
    return "--fault-cycle must be >= 0";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt) || opt.help) {
    PrintUsage();
    return opt.help ? 0 : 1;
  }
  if (const std::string err = ValidateFlagComposition(opt); !err.empty()) {
    std::fprintf(stderr, "osumac_sim: %s\n\n", err.c_str());
    PrintUsage();
    return 1;
  }
  if (!opt.scenario_file.empty()) return RunSweep(opt);
  if (opt.gps_users < 0 || opt.gps_users > 8 || opt.data_users < 1) {
    std::fprintf(stderr, "invalid population\n");
    return 1;
  }
  if (opt.trace_format != "chrome" && opt.trace_format != "jsonl" &&
      opt.trace_format != "timeline") {
    std::fprintf(stderr, "unknown trace format '%s'\n", opt.trace_format.c_str());
    return 1;
  }
  if (opt.profile_format != "speedscope" && opt.profile_format != "collapsed" &&
      opt.profile_format != "chrome" && opt.profile_format != "report") {
    std::fprintf(stderr, "unknown profile format '%s'\n",
                 opt.profile_format.c_str());
    return 1;
  }
  if (opt.cells != 0) {
    char network_config[256];
    std::snprintf(network_config, sizeof(network_config),
                  "cells=%d data-users=%d gps=%d cycles=%d warmup=%d",
                  opt.cells, opt.data_users, opt.gps_users, opt.cycles,
                  opt.warmup);
    const std::string provenance =
        obs::ProvenanceLine("osumac_sim", opt.seed, network_config);
    std::printf("%s\n", provenance.c_str());
    return RunNetwork(opt, provenance);
  }

  char config_text[256];
  if (opt.mac != "osu") {
    std::snprintf(config_text, sizeof(config_text),
                  "mac=%s rho=%g data-users=%d gps=%d cycles=%d warmup=%d "
                  "channel=%s",
                  opt.mac.c_str(), opt.rho, opt.data_users, opt.gps_users,
                  opt.cycles, opt.warmup, opt.channel.c_str());
  } else {
    std::snprintf(config_text, sizeof(config_text),
                  "rho=%g data-users=%d gps=%d cycles=%d warmup=%d channel=%s",
                  opt.rho, opt.data_users, opt.gps_users, opt.cycles,
                  opt.warmup, opt.channel.c_str());
  }
  const std::string provenance =
      obs::ProvenanceLine("osumac_sim", opt.seed, config_text);
  std::printf("%s\n", provenance.c_str());

  std::string spec_error;
  exp::ScenarioSpec spec = SpecFromOptions(opt, &spec_error);
  if (!spec_error.empty()) {
    std::fprintf(stderr, "%s\n", spec_error.c_str());
    return 1;
  }
  // --journal-expect implies journaling even without --journal FILE: the
  // live run still needs its own records to compare against the reference.
  const bool journaling =
      !opt.journal_file.empty() || !opt.journal_expect_file.empty();
  if (journaling) spec.journal_every = opt.journal_every;
  if (opt.mac != "osu") return RunPolicy(opt, spec, provenance);

  exp::ScenarioRun run(spec);
  mac::Cell& cell = run.cell();
  const bool flight = !opt.flight_dir.empty();
  analysis::ProtocolAuditor auditor;
  // The flight recorder's trigger policy watches the auditor, so arming it
  // implies auditing even without --audit (violations just aren't printed).
  if (opt.audit || flight) cell.AddObserver(&auditor);

  // Self-profiling: install for the rest of main (all run phases) so every
  // zone — population, warm-up, measured cycles, finish — lands in one
  // aggregated tree.  A null install is a no-op, so unprofiled runs pay
  // only the thread-local null check per zone.
  obs::Profiler profiler;
  const obs::Profiler::ThreadScope profile_scope(
      opt.profile_file.empty() ? nullptr : &profiler);

  run.BuildPopulation();
  run.StartWorkloads();
  run.Warmup();

  // Attach the trace only for the measured cycles, so the reconstructed
  // timeline and the figure metrics cover exactly the same window.  Size the
  // ring generously so nothing is overwritten mid-run (a dropped event would
  // make the occupancy reconstruction partial).  The flight recorder rides
  // on the same trace even when --trace wasn't requested.
  obs::EventTrace trace(
      std::max<std::size_t>(obs::EventTrace::kDefaultCapacity,
                            static_cast<std::size_t>(opt.cycles) * 512));
  const bool tracing = !opt.trace_file.empty();
  // Journaled runs also attach the trace so the journal's `events`
  // component carries a live fingerprint; a reference recorded with
  // --journal then agrees with a later --journal-expect --flight-dir run
  // on trace presence (without this, events would be 0 on one side only).
  if (tracing || flight || journaling) cell.AttachTrace(&trace);

  obs::FlightRecorder recorder(
      obs::FlightRecorder::Config{static_cast<std::size_t>(opt.flight_cycles)});
  obs::MetricsRegistry flight_registry;
  analysis::FlightRecorderObserver flight_observer(&recorder, &auditor);
  if (flight) {
    metrics::RegisterCellMetrics(flight_registry, cell);
    recorder.AttachTrace(&trace);
    recorder.AttachRegistry(&flight_registry);
    recorder.AttachSlo(&cell.slo());
    recorder.SetScenario(config_text);
    recorder.SetProvenance(provenance);
    flight_observer.SetDumpDir(opt.flight_dir);
    cell.AddObserver(&flight_observer);
  }

  // Journal expectation: installed after Warmup() (which created the
  // journal) and before the measured cycles, so the first mismatching
  // record trips the flight recorder while the trace window is still warm.
  obs::LoadedJournal expect;
  std::size_t expect_count = 0;
  bool expecting = false;
  long long diverged_cycle = -1;
  int diverged_component = -2;
  if (!opt.journal_expect_file.empty()) {
    if (!obs::LoadJournalJsonl(opt.journal_expect_file, &expect)) {
      std::fprintf(stderr, "cannot read reference journal '%s'\n",
                   opt.journal_expect_file.c_str());
      return 1;
    }
    expecting = true;
    std::vector<obs::JournalRecord> reference;
    for (std::size_t c = 0; c < expect.cell_ids.size(); ++c) {
      if (expect.cell_ids[c] == 0) reference = expect.cell_records[c];
    }
    expect_count = reference.size();
    run.journal()->AddCell(0).ExpectReference(
        std::move(reference),
        [&](const obs::JournalRecord& live, const obs::JournalRecord&,
            int component) {
          diverged_cycle = static_cast<long long>(live.cycle);
          diverged_component = component;
          if (flight) {
            char reason[128];
            std::snprintf(
                reason, sizeof reason,
                "journal divergence: cycle %lld: %s hash diverged",
                static_cast<long long>(live.cycle),
                component >= 0 && component < obs::kJournalComponentCount
                    ? obs::kJournalComponents[component]
                    : "chain");
            recorder.Trip(reason, live.cycle);
          }
        });
  }
  if (opt.fault_cycle_set) cell.PerturbRngAt(opt.fault_cycle);

  run.Measure();
  const exp::RunResult result = run.Finish();

  PrintFigureReport(opt, result);
  if (tracing) {
    std::ofstream out(opt.trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file '%s'\n", opt.trace_file.c_str());
      return 1;
    }
    if (opt.trace_format == "chrome") {
      obs::WriteChromeTrace(out, trace, provenance);
    } else if (opt.trace_format == "jsonl") {
      obs::WriteJsonl(out, trace);
    } else {
      obs::WriteTimeline(out, trace);
    }
    std::printf("trace                  %8lld events -> %s (%s)\n",
                static_cast<long long>(trace.size()), opt.trace_file.c_str(),
                opt.trace_format.c_str());
    if (trace.dropped() > 0) {
      std::printf("trace dropped          %8lld (ring wrapped; timeline partial)\n",
                  static_cast<long long>(trace.dropped()));
    }
    const obs::Timeline timeline = obs::ReconstructTimeline(trace);
    std::printf("timeline utilization   %8.6f (cell %8.6f)\n",
                timeline.PaperUtilization(), cell.metrics().Utilization());
    std::printf("reverse busy fraction  %8.3f, forward %8.3f\n",
                timeline.ReverseBusyFraction(), timeline.ForwardBusyFraction());
    const Tick guard = timeline.MinGuardObserved();
    if (!timeline.min_tx_rx_gap.empty()) {
      std::printf("min TX/RX switch gap   %8.1f ms (guard %.1f ms)\n",
                  1e3 * static_cast<double>(guard) / kTicksPerSecond,
                  1e3 * static_cast<double>(phy::kHalfDuplexSwitchTicks) /
                      kTicksPerSecond);
    }
  }
  bool journal_mismatch = false;
  if (journaling) {
    const obs::RunJournal& journal = *run.journal();
    if (!opt.journal_file.empty() && !WriteJournalFile(opt, journal, provenance)) {
      return 1;
    }
    if (expecting) {
      const obs::CellJournal& cj = *journal.cells().front();
      if (diverged_cycle >= 0) {
        std::printf("journal                DIVERGED at cycle %lld (%s hash)\n",
                    diverged_cycle,
                    diverged_component >= 0 &&
                            diverged_component < obs::kJournalComponentCount
                        ? obs::kJournalComponents[diverged_component]
                        : "chain");
        journal_mismatch = true;
      } else if (static_cast<std::size_t>(cj.recorded()) != expect_count) {
        std::printf("journal                record count %lld != reference %lld\n",
                    static_cast<long long>(cj.recorded()),
                    static_cast<long long>(expect_count));
        journal_mismatch = true;
      } else {
        std::printf("journal                matches reference (%lld records)\n",
                    static_cast<long long>(cj.recorded()));
      }
    }
  }
  if (!opt.metrics_file.empty()) {
    obs::MetricsRegistry registry;
    metrics::RegisterCellMetrics(registry, cell);
    if (!WriteMetricsFile(opt.metrics_file, registry, "")) return 1;
  }
  if (opt.slo) cell.slo().WriteReport(std::cout);
  if (!opt.profile_file.empty() &&
      !WriteProfileFile(opt, profiler, provenance)) {
    return 1;
  }
  if (flight) {
    if (!recorder.tripped() && opt.flight_dump_on_exit) {
      recorder.Trip("exit: --flight-dump-on-exit", cell.current_cycle());
    }
    if (recorder.tripped() && !flight_observer.dumped()) {
      std::string err;
      if (!recorder.Dump(opt.flight_dir, &err)) {
        std::fprintf(stderr, "flight dump failed: %s\n", err.c_str());
        return 1;
      }
    }
    if (!flight_observer.dump_error().empty()) {
      std::fprintf(stderr, "flight dump failed: %s\n",
                   flight_observer.dump_error().c_str());
      return 1;
    }
    if (recorder.tripped()) {
      std::printf("flight                 -> %s (cycle %lld: %s)\n",
                  opt.flight_dir.c_str(),
                  static_cast<long long>(recorder.trip_cycle()),
                  recorder.trip_reason().c_str());
    } else {
      std::printf("flight                 armed, never tripped (no dump)\n");
    }
  }
  if (opt.audit) {
    std::printf("audit                  %s\n", auditor.Report().c_str());
    if (!auditor.violations().empty()) return 2;
  }
  if (journal_mismatch) return 3;
  return 0;
}
