// osumac_sim — configurable command-line front end to the simulator.
//
//   $ osumac_sim --rho 0.8 --data-users 12 --gps 4 --cycles 1000
//                --channel uniform --ser 0.02 --seed 7
//   $ osumac_sim --scenario sweeps.scn --jobs 8 --out sweeps.json
//
// Every flag is one row of kFlags: its value, the scenario key or Options
// member it sets, the run modes that honour it and its help line.  Model
// flags are scenario keys: they go through exp::ApplyScenarioKey onto a CLI
// base spec, and the finished spec through exp::SpecInputError, exactly
// like a scenario file.  Single-run mode drives that one spec through the
// engine's phases for any MAC tenant and prints the Section-5 metric set;
// --audit/--trace/--metrics/--profile attach their instrumentation to the
// live cell between phases.  Scenario mode (--scenario FILE) runs every
// spec in FILE on the sweep runner (--jobs N workers, bit-identical at any
// N) and emits CSV or the BENCH_sweeps.json format (--out *.json).
// Network mode (--cells N) runs N OSU cells in lockstep.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <variant>

#include "common/parallel.h"
#include "osumac/osumac.h"

using namespace osumac;

namespace {

/// The run modes; a flag names the ones that honour it.
enum Mode : unsigned { kOsu = 1, kPolicy = 2, kSweep = 4, kNetwork = 8 };
constexpr unsigned kSingle = kOsu | kPolicy;
constexpr unsigned kLive = kSingle | kNetwork;  ///< every mode but sweep
constexpr std::pair<unsigned, const char*> kModeNames[] = {
    {kOsu, "osu"}, {kPolicy, "policy"}, {kSweep, "sweep"}, {kNetwork, "network"}};

/// Run control and instrumentation: what a flag sets that is not a
/// scenario key.
struct Options {
  unsigned mode = kOsu;
  bool help = false;
  bool audit = false;
  bool slo = false;
  std::string trace_file;
  std::string metrics_file;
  std::string flight_dir;
  std::string journal_file;
  int journal_every = 1;
  std::string journal_expect_file;
  int fault_cycle = -1;  ///< -1 = no fault injected
  std::string scenario_file;
  std::string out_file;
  int jobs = 1;
  int cells = 0;  ///< 0 = not network mode
  int threads = 1;
  std::string profile_file;
};

/// A model flag: sets scenario key `key` to `prefix` + the flag's value (a
/// switch sets it to `prefix` alone).
struct Key {
  const char* key;
  const char* prefix = "";
};
/// A strict-integer Options member and its least valid value.
struct Int {
  int Options::*member;
  int min;
};
/// --channel KIND and --ser P, which expand to the forward_channel and
/// reverse_channel keys together (ApplyChannelFlags).
enum class Channel { kKind, kSer };
using Text = std::string Options::*;

struct Flag {
  const char* name;
  const char* arg;  ///< value placeholder ("a|b" lists the choices); null: a switch
  std::variant<Key, Int, Text, bool Options::*, Channel> target;
  unsigned modes;
  const char* help;
  /// The flag only means something next to one of these (set) members.
  std::array<Text, 2> needs{};
  const char* alias = nullptr;
};

constexpr Flag kFlags[] = {
    {"--rho", "X", Key{"rho"}, kSingle, "reverse-channel load index (default 0.7)"},
    {"--data-users", "N", Key{"data_users"}, kLive,
     "data subscribers per cell (default 10)"},
    {"--gps", "N", Key{"gps_users"}, kLive, "GPS buses per cell (default 4)"},
    {"--cycles", "N", Key{"measure_cycles"}, kLive,
     "measured notification cycles (default 500)"},
    {"--warmup", "N", Key{"warmup_cycles"}, kLive,
     "warm-up cycles excluded from stats (default 50)"},
    {"--seed", "N", Key{"seed"}, kLive, "RNG seed, any uint64 (default 1)"},
    {"--channel", "perfect|uniform|ge", Channel::kKind, kSingle,
     "channel model both ways (default perfect; ge runs the\n"
     "default Gilbert-Elliott parameters)"},
    {"--ser", "P", Channel::kSer, kSingle,
     "reverse symbol error rate of --channel uniform\n(default 0.02; forward gets P/2)"},
    {"--fixed-size", "B", Key{"sizes", "fixed "}, kSingle,
     "fixed message size in bytes (default uniform 40-500)"},
    {"--downlink-rho", "X", Key{"downlink_rho"}, kOsu,
     "also drive downlink e-mail at this load"},
    {"--arq", nullptr, Key{"mac.arq", "true"}, kOsu | kNetwork, "downlink ARQ extension"},
    {"--no-second-cf", nullptr, Key{"mac.second_cf", "false"}, kOsu | kNetwork,
     "ablation: no second control fields"},
    {"--static-gps", nullptr, Key{"mac.dynamic_gps", "false"}, kOsu | kNetwork,
     "ablation: no dynamic GPS slot adjustment"},
    {"--static-contention", nullptr, Key{"mac.dynamic_contention", "false"},
     kOsu | kNetwork, "ablation: fixed number of contention slots"},
    {"--mac", "NAME", Key{"mac"}, kSingle,
     "MAC policy: osu | rqma | pca (default osu; see\ndocs/MAC_POLICIES.md)"},
    {"--audit", nullptr, &Options::audit, kSingle,
     "protocol-invariant auditor; exit 2 on a violation"},
    {"--trace", "FILE", &Options::trace_file, kOsu,
     "write the measured cycles' event trace to FILE\n(Chrome trace JSON)"},
    {"--metrics", "FILE", &Options::metrics_file, kLive,
     "dump the metrics registry (.json for JSON, else CSV)"},
    {"--slo", nullptr, &Options::slo, kLive, "print the QoS/SLO report after the run"},
    {"--flight-dir", "DIR", &Options::flight_dir, kOsu,
     "arm the flight recorder: dump the retained window to\n"
     "DIR on an audit violation or SLO budget miss"},
    {"--journal", "FILE", &Options::journal_file, kLive,
     "write the per-cycle digest journal to FILE (JSONL;\n"
     "diff runs with tools/osumac_diff.py)"},
    {"--journal-every", "N", Int{&Options::journal_every, 1}, kLive,
     "journal every N-th cycle (default 1)",
     {&Options::journal_file, &Options::journal_expect_file}},
    {"--journal-expect", "REF", &Options::journal_expect_file, kOsu,
     "compare the run against a reference journal; the first\n"
     "divergence trips the flight recorder and exits 3"},
    {"--fault-cycle", "N", Int{&Options::fault_cycle, 0}, kOsu,
     "perturb the cell RNG stream at the start of cycle N"},
    {"--cells", "N", Int{&Options::cells, 2}, kNetwork,
     "network mode: N cells in lockstep with mobility and\ncross-cell chatter"},
    {"--threads", "N", Int{&Options::threads, 0}, kNetwork,
     "lockstep workers (0 = all cores, default 1; results\nare bit-identical at any N)"},
    {"--profile", "FILE", &Options::profile_file, kLive,
     "self-profile the run into FILE (speedscope JSON)"},
    {"--scenario", "FILE", &Options::scenario_file, kSweep,
     "sweep mode: run every scenario in FILE"},
    {"--jobs", "N", Int{&Options::jobs, 0}, kSweep,
     "sweep workers (0 = all cores, default 1; results are\nbit-identical at any N)", {},
     "-j"},
    {"--out", "FILE", &Options::out_file, kSweep,
     "sweep results: .json for BENCH_sweeps.json format,\n"
     "else CSV (default CSV on stdout)"},
    {"--help", nullptr, &Options::help, kLive | kSweep, "print this table", {}, "-h"},
};

std::string ModeNames(unsigned modes) {
  std::string out;
  for (const auto& [mode, name] : kModeNames) {
    if ((modes & mode) == 0) continue;
    if (!out.empty()) out += ' ';
    out += name;
  }
  return out;
}

/// "--journal or --journal-expect": the flags `flag` needs one of.
std::string Needs(const Flag& flag) {
  std::string out;
  for (const Flag& other : kFlags) {
    const Text* member = std::get_if<Text>(&other.target);
    if (member == nullptr || *member == nullptr ||
        std::find(flag.needs.begin(), flag.needs.end(), *member) == flag.needs.end()) {
      continue;
    }
    if (!out.empty()) out += " or ";
    out += other.name;
  }
  return out;
}

void PrintUsage() {
  std::printf(
      "usage: osumac_sim [options]   (--opt=value works too)\n"
      "A run is one of four modes: osu (default, one OSU cell), policy (one\n"
      "cell of --mac rqma|pca), sweep (--scenario FILE) or network (--cells N).\n"
      "Each flag lists the scenario key it sets (docs/SCENARIOS.md) and the\n"
      "modes that honour it; any other combination is an error.\n");
  for (const Flag& flag : kFlags) {
    std::string text = std::string(flag.help) + "\n[";
    if (const Key* key = std::get_if<Key>(&flag.target)) {
      text += std::string("key ") + key->key + "; ";
    } else if (std::holds_alternative<Channel>(flag.target)) {
      text += "keys forward_channel reverse_channel; ";
    }
    text += ModeNames(flag.modes);
    if (flag.needs[0] != nullptr) text += std::string("; needs ") + Needs(flag);
    text += "]";
    for (std::size_t at = 0; (at = text.find('\n', at)) != std::string::npos; at += 7) {
      text.insert(at + 1, 6, ' ');
    }
    std::printf("  %s%s%s%s\n      %s\n", flag.alias ? flag.alias : "",
                flag.alias ? ", " : "", flag.name,
                flag.arg ? (std::string(" ") + flag.arg).c_str() : "", text.c_str());
  }
}

/// --channel KIND and --ser P as forward_channel/reverse_channel values:
/// uniform gives the stronger base-station transmitter half the reverse
/// SER, and ge runs the default Gilbert-Elliott parameters both ways.
std::string ApplyChannelFlags(const std::string& kind,
                              const std::optional<std::string>& ser,
                              exp::ScenarioSpec& spec) {
  if (ser && kind != "uniform") {
    return "--ser " + *ser + ": sets the error rate of --channel uniform only";
  }
  const phy::GilbertElliottModel::Params ge = mac::ChannelModelConfig{}.ge;
  char text[128];
  std::snprintf(text, sizeof text, "ge %.17g %.17g %.17g %.17g", ge.p_good_to_bad,
                ge.p_bad_to_good, ge.error_prob_good, ge.error_prob_bad);
  const std::string reverse =
      kind == "uniform" ? std::string("uniform ") + ser.value_or("0.02")
      : kind == "ge"    ? text
                        : kind;
  std::string error;
  if (!exp::ApplyScenarioKey(spec, "reverse_channel", reverse, nullptr, &error)) {
    return std::string("--ser ") + ser.value_or("") + ": " + error;
  }
  if (kind == "uniform") {
    std::snprintf(text, sizeof text, "uniform %.17g", spec.reverse.symbol_error_prob / 2);
  }
  exp::ApplyScenarioKey(spec, "forward_channel", kind == "uniform" ? text : reverse,
                        nullptr, &error);
  return error;
}

/// A given flag as typed: "--rho 0.8", "--arq".
std::string Spelled(const std::pair<const Flag*, std::string>& given) {
  return std::string(given.first->name) + (given.first->arg ? " " + given.second : "");
}

/// Parses argv: model flags onto `spec` (the CLI base spec), everything
/// else into `opt`.  Then checks each flag against the run mode and the
/// finished spec against exp::SpecInputError.  Returns "" or what is wrong.
std::string ParseArgs(int argc, char** argv, Options& opt, exp::ScenarioSpec& spec) {
  std::vector<std::pair<const Flag*, std::string>> given;
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    std::optional<std::string> value;
    if (const std::size_t eq = name.find('=');
        name.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.erase(eq);
    }
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return name == f.name || (f.alias && name == f.alias); });
    if (flag == std::end(kFlags)) return "unknown option " + name;
    if (flag->arg == nullptr && value) return name + " takes no value";
    if (flag->arg != nullptr && !value) {
      if (i + 1 >= argc) return name + " needs a value " + flag->arg;
      value = argv[++i];
    }
    given.emplace_back(flag, value.value_or(""));
  }

  std::string channel = "perfect";
  std::optional<std::string> ser;
  for (const auto& [flag, value] : given) {
    // An argument spelled "a|b|c" is a choice among those words.
    if (flag->arg != nullptr && std::strchr(flag->arg, '|') != nullptr &&
        (std::string("|") + flag->arg + "|").find("|" + value + "|") ==
            std::string::npos) {
      return Spelled({flag, value}) + ": expected " + flag->arg;
    }
    std::string error;
    if (const Key* key = std::get_if<Key>(&flag->target)) {
      exp::ApplyScenarioKey(spec, key->key, key->prefix + value, nullptr, &error);
    } else if (const Int* n = std::get_if<Int>(&flag->target)) {
      int& field = opt.*n->member;
      if (!exp::ParseInt(value, &field)) error = "expected an integer";
      if (error.empty() && field < n->min) error = "must be >= " + std::to_string(n->min);
    } else if (const Text* text = std::get_if<Text>(&flag->target)) {
      opt.**text = value;
    } else if (const auto* on = std::get_if<bool Options::*>(&flag->target)) {
      opt.**on = true;
    } else if (std::get<Channel>(flag->target) == Channel::kKind) {
      channel = value;
    } else {
      ser = value;
    }
    if (!error.empty()) return Spelled({flag, value}) + ": " + error;
  }
  if (opt.help) return "";
  if (const std::string error = ApplyChannelFlags(channel, ser, spec); !error.empty()) {
    return error;
  }
  spec.workload.downlink_sizes = spec.workload.sizes;

  opt.mode = !opt.scenario_file.empty() ? kSweep
             : opt.cells != 0           ? kNetwork
             : spec.mac_policy != "osu" ? kPolicy
                                        : kOsu;
  for (const auto& [flag, value] : given) {
    if ((flag->modes & opt.mode) == 0) {
      return std::string(flag->name) + " does not apply to " + ModeNames(opt.mode) +
             " runs (it applies to: " + ModeNames(flag->modes) + ")";
    }
    const auto [a, b] = flag->needs;
    if (a != nullptr && (opt.*a).empty() && (b == nullptr || (opt.*b).empty())) {
      return std::string(flag->name) + " needs " + Needs(*flag);
    }
  }
  if (opt.threads != 1 && !opt.profile_file.empty()) {
    return "--profile zones are thread-local and worker cells would profile "
           "into the void; use --threads 1 with --profile";
  }
  if (opt.mode == kSweep) return "";
  std::vector<std::string> keys;
  const std::string error = exp::SpecInputError(spec, &keys);
  // Name the last flag that set one of the keys involved, if any did.
  for (auto it = given.rbegin(); !error.empty() && it != given.rend(); ++it) {
    const Key* key = std::get_if<Key>(&it->first->target);
    if (key != nullptr && std::find(keys.begin(), keys.end(), key->key) != keys.end()) {
      return Spelled(*it) + ": " + error;
    }
  }
  return error;
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

/// Writes the recorded zone tree to opt.profile_file as speedscope JSON.
/// Returns false (with a message) when the file cannot be opened.
bool WriteProfileFile(const Options& opt, const obs::Profiler& profiler) {
  std::ofstream out(opt.profile_file);
  if (!out) {
    std::fprintf(stderr, "cannot open profile file '%s'\n",
                 opt.profile_file.c_str());
    return false;
  }
  obs::WriteSpeedscope(out, profiler, "osumac_sim");
  std::printf("profile                -> %s (speedscope)\n", opt.profile_file.c_str());
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

/// The Section-5 metric block of a single-cell run.  Policy tenants report
/// the policy-agnostic subset (no reservation latency, control overhead or
/// second-CF gain; drops are policy deadline drops).
void PrintFigureReport(const exp::ScenarioSpec& spec, const exp::RunResult& result) {
  const bool osu = spec.mac_policy == "osu";
  const metrics::FigureMetrics& m = result.figure;
  const mac::BsCounters& bs = result.bs;
  const std::string tenant = osu ? "" : "mac=" + spec.mac_policy + " ";
  std::printf("==== osumac_sim: %srho=%.2f users=%d gps=%d cycles=%d channel=%s ====\n",
              tenant.c_str(), spec.workload.rho, spec.data_users, spec.gps_users,
              spec.measure_cycles, exp::ChannelKindName(spec.reverse.kind));
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
  if (spec.gps_users > 0) {
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
  if (spec.workload.downlink_rho > 0) {
    std::printf("downlink msg delay     %8.2f cycles, lost packets %lld, retx %lld\n",
                result.downlink_mean_delay_cycles,
                static_cast<long long>(result.forward_packets_lost),
                static_cast<long long>(bs.forward_retransmissions));
  }
}

/// Network mode (--cells N): the model spec's population (per cell),
/// phases, seed and MAC toggles on N cells in lockstep with mobility and
/// cross-cell chatter; prints the backbone counters and the merged network
/// SLO rollup.
int RunNetwork(const Options& opt, const exp::ScenarioSpec& model) {
  exp::NetworkScenarioSpec spec;
  spec.name = "osumac_sim_network";
  spec.cells = opt.cells;
  spec.data_users_per_cell = model.data_users;
  spec.gps_users_per_cell = model.gps_users;
  spec.registration_cycles = model.registration_cycles;
  spec.warmup_cycles = model.warmup_cycles;
  spec.measure_cycles = model.measure_cycles;
  spec.seed = model.seed;
  spec.threads = ResolveParallelism(opt.threads);
  spec.mac = model.mac;

  char config_text[256];
  std::snprintf(config_text, sizeof(config_text),
                "cells=%d data-users=%d gps=%d cycles=%d warmup=%d", spec.cells,
                spec.data_users_per_cell, spec.gps_users_per_cell,
                spec.measure_cycles, spec.warmup_cycles);
  const std::string provenance =
      obs::ProvenanceLine("osumac_sim", spec.seed, config_text);
  std::printf("%s\n", provenance.c_str());

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
      spec.cells, spec.data_users_per_cell, spec.gps_users_per_cell,
      spec.measure_cycles, spec.threads);
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
  if (!opt.profile_file.empty() && !WriteProfileFile(opt, profiler)) {
    return 1;
  }
  return 0;
}

/// The journal component a divergence names ("chain": the chain hash).
const char* ComponentName(int component) {
  return component >= 0 && component < obs::kJournalComponentCount
             ? obs::kJournalComponents[component]
             : "chain";
}

/// Single-run mode, every tenant: one ScenarioRun under one profiler scope,
/// then one report and epilogue.  The event trace, flight recorder,
/// --journal-expect and --fault-cycle attach to the OSU cell only (the flag
/// table keeps them off policy runs).
int RunSingle(const Options& opt, exp::ScenarioSpec spec) {
  const bool osu = spec.mac_policy == "osu";
  char config_text[256];
  std::snprintf(config_text, sizeof(config_text),
                "%s%srho=%g data-users=%d gps=%d cycles=%d warmup=%d channel=%s",
                osu ? "" : "mac=", osu ? "" : (spec.mac_policy + " ").c_str(),
                spec.workload.rho, spec.data_users, spec.gps_users, spec.measure_cycles,
                spec.warmup_cycles, exp::ChannelKindName(spec.reverse.kind));
  const std::string provenance =
      obs::ProvenanceLine("osumac_sim", spec.seed, config_text);
  std::printf("%s\n", provenance.c_str());

  // --journal-expect implies journaling even without --journal FILE: the
  // live run still needs its own records to compare against the reference.
  const bool journaling =
      !opt.journal_file.empty() || !opt.journal_expect_file.empty();
  if (journaling) spec.journal_every = opt.journal_every;

  exp::ScenarioRun run(spec);
  mac::PolicyCell* const policy = run.policy_cell();
  mac::Cell* const cell = policy == nullptr ? &run.cell() : nullptr;
  const bool flight = !opt.flight_dir.empty();
  analysis::ProtocolAuditor auditor;
  analysis::PolicyAuditor policy_auditor;
  if (policy != nullptr) {
    if (opt.audit) policy->AddObserver(&policy_auditor);
  } else if (opt.audit || flight) {
    // The flight recorder's trigger policy watches the auditor, so arming it
    // implies auditing even without --audit (violations just aren't printed).
    cell->AddObserver(&auditor);
  }

  // Self-profiling: install for the rest of the run (all phases) so every
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
  // on the same trace even when --trace wasn't requested, and journaled runs
  // attach it so the journal's `events` component carries a live
  // fingerprint: a reference recorded with --journal then agrees with a
  // later --journal-expect --flight-dir run on trace presence.
  const bool tracing = !opt.trace_file.empty();
  std::optional<obs::EventTrace> trace;
  if (cell != nullptr && (tracing || flight || journaling)) {
    trace.emplace(std::max<std::size_t>(
        obs::EventTrace::kDefaultCapacity,
        static_cast<std::size_t>(spec.measure_cycles) * 512));
    cell->AttachTrace(&*trace);
  }

  obs::FlightRecorder recorder;
  obs::MetricsRegistry flight_registry;
  analysis::FlightRecorderObserver flight_observer(&recorder, &auditor);
  if (flight) {
    metrics::RegisterCellMetrics(flight_registry, *cell);
    recorder.AttachTrace(&*trace);
    recorder.AttachRegistry(&flight_registry);
    recorder.AttachSlo(&cell->slo());
    recorder.SetScenario(config_text);
    recorder.SetProvenance(provenance);
    flight_observer.SetDumpDir(opt.flight_dir);
    cell->AddObserver(&flight_observer);
  }

  // Journal expectation: installed after Warmup() (which created the
  // journal) and before the measured cycles, so the first mismatching
  // record trips the flight recorder while the trace window is still warm.
  const bool expecting = !opt.journal_expect_file.empty();
  std::size_t expect_count = 0;
  long long diverged_cycle = -1;
  int diverged_component = -2;
  if (expecting) {
    obs::LoadedJournal expect;
    if (!obs::LoadJournalJsonl(opt.journal_expect_file, &expect)) {
      if (!expect.schema.empty() && expect.schema != obs::kJournalSchema) {
        std::fprintf(stderr,
                     "reference journal '%s' has schema %s, this build writes %s; "
                     "re-record it\n",
                     opt.journal_expect_file.c_str(), expect.schema.c_str(),
                     obs::kJournalSchema);
      } else {
        std::fprintf(stderr, "cannot read reference journal '%s'\n",
                     opt.journal_expect_file.c_str());
      }
      return 1;
    }
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
            std::snprintf(reason, sizeof reason,
                          "journal divergence: cycle %lld: %s hash diverged",
                          static_cast<long long>(live.cycle), ComponentName(component));
            recorder.Trip(reason, live.cycle);
          }
        });
  }
  if (opt.fault_cycle >= 0) cell->PerturbRngAt(opt.fault_cycle);

  run.Measure();
  const exp::RunResult result = run.Finish();

  PrintFigureReport(spec, result);
  if (tracing) {
    std::ofstream out(opt.trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file '%s'\n", opt.trace_file.c_str());
      return 1;
    }
    obs::WriteChromeTrace(out, *trace, provenance);
    std::printf("trace                  %8lld events -> %s (chrome)\n",
                static_cast<long long>(trace->size()), opt.trace_file.c_str());
    if (trace->dropped() > 0) {
      std::printf("trace dropped          %8lld (ring wrapped; timeline partial)\n",
                  static_cast<long long>(trace->dropped()));
    }
    const obs::Timeline timeline = obs::ReconstructTimeline(*trace);
    std::printf("timeline utilization   %8.6f (cell %8.6f)\n",
                timeline.PaperUtilization(), cell->metrics().Utilization());
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
    if (!opt.journal_file.empty()) {
      if (!obs::WriteJournalJsonl(journal, opt.journal_file, provenance)) {
        std::fprintf(stderr, "cannot open journal file '%s'\n",
                     opt.journal_file.c_str());
        return 1;
      }
      std::printf("journal                %8lld records -> %s (every %d, signature %s)\n",
                  static_cast<long long>(journal.cells().front()->recorded()),
                  opt.journal_file.c_str(), journal.every(),
                  obs::JournalHex(journal.Signature()).c_str());
    }
    if (expecting) {
      const obs::CellJournal& cj = *journal.cells().front();
      if (diverged_cycle >= 0) {
        std::printf("journal                DIVERGED at cycle %lld (%s hash)\n",
                    diverged_cycle, ComponentName(diverged_component));
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
    if (policy != nullptr) {
      metrics::RegisterPolicyCellMetrics(registry, *policy);
    } else {
      metrics::RegisterCellMetrics(registry, *cell);
    }
    const std::string scope = osu ? "" : "; mac." + spec.mac_policy + ".*";
    if (!WriteMetricsFile(opt.metrics_file, registry, scope)) return 1;
  }
  if (opt.slo) (policy != nullptr ? policy->slo() : cell->slo()).WriteReport(std::cout);
  if (!opt.profile_file.empty() && !WriteProfileFile(opt, profiler)) {
    return 1;
  }
  if (flight) {
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
    const bool clean = policy != nullptr ? policy_auditor.violations().empty()
                                         : auditor.violations().empty();
    std::printf("audit                  %s\n",
                (policy != nullptr ? policy_auditor.Report() : auditor.Report()).c_str());
    if (!clean) return 2;
  }
  if (journal_mismatch) return 3;
  return 0;
}

/// The spec model flags apply to: the scenario defaults with the CLI's own
/// name, load, seed and run length.
exp::ScenarioSpec CliBaseSpec() {
  exp::ScenarioSpec spec;
  spec.name = "osumac_sim";
  spec.workload.rho = 0.7;
  spec.measure_cycles = 500;
  spec.seed = 1;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  exp::ScenarioSpec spec = CliBaseSpec();
  if (const std::string error = ParseArgs(argc, argv, opt, spec); !error.empty()) {
    std::fprintf(stderr, "osumac_sim: %s\n(osumac_sim --help lists every flag)\n",
                 error.c_str());
    return 1;
  }
  if (opt.help) {
    PrintUsage();
    return 0;
  }
  if (opt.mode == kSweep) return RunSweep(opt);
  if (opt.mode == kNetwork) return RunNetwork(opt, spec);
  return RunSingle(opt, spec);
}
