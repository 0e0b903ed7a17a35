// Tests for the scenario engine (src/exp): spec determinism across worker
// counts, golden parity with the pre-engine bench harness, replication
// expansion, scenario-file parsing, emitters and the parallel executor.
#include <gtest/gtest.h>

#include <sstream>

#include "common/parallel.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/scenario_io.h"
#include "exp/seed.h"

namespace osumac::exp {
namespace {

/// A small but diverse spec list: different loads, seeds, toggles, channel
/// models, a downlink and a churn scenario — everything the runner
/// schedules differently at different job counts.
std::vector<ScenarioSpec> DiverseSpecs() {
  std::vector<ScenarioSpec> specs;

  ScenarioSpec light = LoadPoint(0.4);
  light.warmup_cycles = 10;
  light.measure_cycles = 80;
  specs.push_back(light);

  ScenarioSpec heavy = LoadPoint(1.0);
  heavy.warmup_cycles = 10;
  heavy.measure_cycles = 80;
  heavy.seed = 77;
  heavy.workload.sizes = traffic::SizeDistribution::Fixed(120);
  specs.push_back(heavy);

  ScenarioSpec no_cf2 = LoadPoint(0.7);
  no_cf2.name = "no_cf2";
  no_cf2.warmup_cycles = 10;
  no_cf2.measure_cycles = 80;
  no_cf2.mac.use_second_control_field = false;
  specs.push_back(no_cf2);

  ScenarioSpec noisy = LoadPoint(0.6);
  noisy.name = "noisy_downlink";
  noisy.warmup_cycles = 10;
  noisy.measure_cycles = 80;
  noisy.reverse.kind = mac::ChannelModelConfig::Kind::kUniform;
  noisy.reverse.symbol_error_prob = 0.01;
  noisy.workload.downlink_rho = 0.2;
  specs.push_back(noisy);

  ScenarioSpec storm;
  storm.name = "storm";
  storm.data_users = 5;
  storm.gps_users = 0;
  storm.registration_cycles = 8;
  storm.warmup_cycles = 10;
  storm.measure_cycles = 50;
  storm.reset_stats_after_warmup = false;
  storm.workload.rho = 1.1;
  storm.churn.arrivals = 4;
  specs.push_back(storm);

  ScenarioSpec fading = LoadPoint(0.6);
  fading.name = "ge_erasures";
  fading.warmup_cycles = 10;
  fading.measure_cycles = 80;
  fading.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  fading.reverse.ge = {0.01, 0.2, 0.001, 0.2};
  fading.erasure_side_information = true;
  specs.push_back(fading);

  return specs;
}

TEST(SweepDeterminismTest, ResultsBitIdenticalAcrossJobCounts) {
  const std::vector<ScenarioSpec> specs = DiverseSpecs();
  const std::vector<RunResult> serial = SweepRunner(1).Run(specs);
  ASSERT_EQ(serial.size(), specs.size());
  for (const int jobs : {2, 8}) {
    const std::vector<RunResult> parallel = SweepRunner(jobs).Run(specs);
    ASSERT_EQ(parallel.size(), specs.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(ResultSignature(serial[i]), ResultSignature(parallel[i]))
          << "spec " << specs[i].name << " diverged at jobs=" << jobs;
    }
  }
}

TEST(SweepDeterminismTest, ResultsComeBackInInputOrder) {
  const std::vector<ScenarioSpec> specs = DiverseSpecs();
  const std::vector<RunResult> results = SweepRunner(8).Run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].name, specs[i].name);
    EXPECT_EQ(results[i].seed, specs[i].seed);
  }
}

TEST(SweepDeterminismTest, RerunningASpecReproducesItExactly) {
  ScenarioSpec spec = LoadPoint(0.8);
  spec.warmup_cycles = 10;
  spec.measure_cycles = 60;
  const RunResult first = RunScenario(spec);
  const RunResult second = RunScenario(spec);
  EXPECT_EQ(ResultSignature(first), ResultSignature(second));
}

// Pre-refactor values of the Fig 8 load point rho = 0.8 (default spec,
// seed 2001), recorded from bench/sweep_common.h's RunLoadPoint at commit
// b2631e2.  The engine must keep reproducing them bit-for-bit: this is the
// contract that the multi-layer bench migration changed no numbers.
TEST(GoldenValueTest, Fig8PointRho08MatchesPreEngineHarness) {
  const RunResult r = RunScenario(LoadPoint(0.8));

  EXPECT_DOUBLE_EQ(r.figure.utilization, 0.72302556818181818);
  EXPECT_DOUBLE_EQ(r.figure.mean_packet_delay_cycles, 9.3704604297884746);
  EXPECT_DOUBLE_EQ(r.figure.p95_packet_delay_cycles, 22.261516339869203);
  EXPECT_DOUBLE_EQ(r.figure.mean_message_delay_cycles, 10.98562117680618);
  EXPECT_DOUBLE_EQ(r.figure.collision_probability, 0.21261682242990654);
  EXPECT_DOUBLE_EQ(r.figure.mean_reservation_latency, 2.5044510385756675);
  EXPECT_DOUBLE_EQ(r.figure.control_overhead, 0.106187624750499);
  EXPECT_DOUBLE_EQ(r.figure.fairness_index, 0.98640375269018421);
  EXPECT_DOUBLE_EQ(r.figure.second_cf_gain, 0.14633659413056499);
  EXPECT_DOUBLE_EQ(r.figure.avg_data_slots_used, 6.2612500000000004);
  EXPECT_DOUBLE_EQ(r.figure.message_drop_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.figure.gps_access_delay_max_s, 3.7682291666666665);
  EXPECT_DOUBLE_EQ(r.figure.gps_reports_per_bus_per_cycle, 1.0);
  EXPECT_DOUBLE_EQ(r.offered_load, 0.72781960227272724);

  EXPECT_EQ(r.bs.data_packets_received, 5009);
  EXPECT_EQ(r.bs.collisions, 91);
  EXPECT_EQ(r.bs.reservation_packets_received, 334);
  EXPECT_EQ(r.bs.last_slot_data_packets, 733);
  EXPECT_EQ(r.bs.payload_bytes_received, 203604);
}

/// Pins a lossy-channel trajectory: a Gilbert-Elliott reverse channel with
/// erasure side information, so optimisation passes over the channel, the
/// decoder or the MAC can't silently shift the error process either.
TEST(GoldenValueTest, GilbertElliottErasurePointIsGoldened) {
  ScenarioSpec spec = LoadPoint(0.8);
  spec.name = "ge_erasure_golden";
  spec.warmup_cycles = 10;
  spec.measure_cycles = 80;
  spec.erasure_side_information = true;
  spec.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  spec.reverse.ge = {0.01, 0.2, 0.001, 0.2};
  const RunResult r = RunScenario(spec);

  EXPECT_DOUBLE_EQ(r.figure.utilization, 0.62535511363636365);
  EXPECT_DOUBLE_EQ(r.figure.mean_packet_delay_cycles, 4.1169428429108388);
  EXPECT_DOUBLE_EQ(r.figure.mean_message_delay_cycles, 4.7421148019992296);
  EXPECT_DOUBLE_EQ(r.figure.collision_probability, 0.12727272727272726);
  EXPECT_DOUBLE_EQ(r.figure.fairness_index, 0.78162889186185636);
  EXPECT_EQ(r.bs.data_packets_received, 433);
  EXPECT_EQ(r.bs.collisions, 7);
  EXPECT_EQ(r.bs.payload_bytes_received, 17610);
}

TEST(ScenarioSpecTest, ReplicationLadderMatchesPreEngineSeeds) {
  // The old RunReplicated used seeds 2001 + 7919 * r; the figure benches'
  // replicated columns depend on this exact ladder.
  const std::vector<ScenarioSpec> reps = ExpandReplications(LoadPoint(0.3), 3);
  ASSERT_EQ(reps.size(), 3u);
  EXPECT_EQ(reps[0].seed, 2001u);
  EXPECT_EQ(reps[1].seed, 9920u);
  EXPECT_EQ(reps[2].seed, 17839u);
  EXPECT_EQ(reps[0].name, "rho_0.3#0");
  EXPECT_EQ(reps[2].name, "rho_0.3#2");
  // Replications only differ by seed/name.
  EXPECT_EQ(reps[0].workload.rho, reps[2].workload.rho);
}

TEST(ScenarioSpecTest, SeedStreamsAreDistinct) {
  const std::uint64_t seed = 42;
  EXPECT_EQ(DeriveSeed(seed, SeedStream::kCell), 42u);
  EXPECT_EQ(DeriveSeed(seed, SeedStream::kUplink), 42u ^ kSplitMix64Gamma);
  EXPECT_NE(DeriveSeed(seed, SeedStream::kDownlink),
            DeriveSeed(seed, SeedStream::kChurn));
  EXPECT_NE(DeriveSeed(seed, SeedStream::kDownlink),
            DeriveSeed(seed + 1, SeedStream::kDownlink));
}

TEST(ScenarioSpecTest, DataSlotsFollowGpsPopulation) {
  ScenarioSpec spec;
  spec.gps_users = 4;  // format 1: 8 data slots
  EXPECT_EQ(spec.DataSlotsForLoad(), 8);
  spec.gps_users = 1;  // format 2: 9 data slots
  EXPECT_EQ(spec.DataSlotsForLoad(), 9);
}

TEST(ScenarioRunTest, ChurnStormMeasuresRegistration) {
  ScenarioSpec spec;
  spec.name = "storm";
  spec.data_users = 4;
  spec.gps_users = 0;
  spec.registration_cycles = 8;
  spec.warmup_cycles = 5;
  spec.measure_cycles = 60;
  spec.reset_stats_after_warmup = false;
  spec.workload.rho = 0.3;
  spec.churn.arrivals = 5;
  const RunResult r = RunScenario(spec);
  ASSERT_EQ(r.churn_registration_latency.size(), 5u);
  EXPECT_EQ(r.churn_registered, 5);  // light load: everyone registers
  for (const double latency : r.churn_registration_latency) {
    EXPECT_GE(latency, 0.0);
    EXPECT_LE(latency, 60.0);
  }
}

TEST(ScenarioRunTest, ChurnTrickleWithSignOffKeepsCellSmall) {
  ScenarioSpec spec;
  spec.data_users = 4;
  spec.gps_users = 0;
  spec.registration_cycles = 8;
  spec.warmup_cycles = 0;
  spec.measure_cycles = 0;
  spec.reset_stats_after_warmup = false;
  spec.workload.rho = 0.0;
  spec.churn.arrivals = 10;
  spec.churn.gap_lo_cycles = 2;
  spec.churn.gap_hi_cycles = 4;
  spec.churn.max_extra_wait_cycles = 20;
  spec.churn.sign_off_after_sample = true;
  ScenarioRun run(spec);
  const RunResult r = run.Execute();
  ASSERT_EQ(r.churn_registration_latency.size(), 10u);
  // Quiet cell: the Section-2.1 design point, registrations within a few
  // cycles — and far below the 20-cycle straggler bound.
  for (const double latency : r.churn_registration_latency) {
    EXPECT_LT(latency, 20.0);
  }
  // Signed off after sampling: no churn subscriber left active.
  EXPECT_EQ(r.churn_registered, 0);
}

TEST(ScenarioRunTest, HooksFireInPhaseOrder) {
  ScenarioSpec spec = LoadPoint(0.5);
  spec.warmup_cycles = 5;
  spec.measure_cycles = 20;
  std::vector<std::string> phases;
  RunHooks hooks;
  hooks.after_build = [&](mac::Cell&) { phases.push_back("build"); };
  hooks.after_warmup = [&](mac::Cell& cell) {
    phases.push_back("warmup");
    EXPECT_EQ(cell.metrics().cycles, 0);  // stats just reset
  };
  hooks.before_finish = [&](mac::Cell& cell) {
    phases.push_back("finish");
    EXPECT_EQ(cell.metrics().cycles, 20);
  };
  RunScenario(spec, hooks);
  EXPECT_EQ(phases, (std::vector<std::string>{"build", "warmup", "finish"}));
}

TEST(ScenarioIoTest, ParsesDefaultsSectionsAndReplications) {
  std::istringstream in(
      "# defaults for the whole file\n"
      "measure_cycles = 40\n"
      "warmup_cycles = 5\n"
      "\n"
      "[light]\n"
      "rho = 0.3\n"
      "seed = 7\n"
      "\n"
      "[heavy]  # trailing comment\n"
      "rho = 1.1\n"
      "sizes = fixed 120\n"
      "mac.second_cf = false\n"
      "replications = 2\n");
  std::string error;
  const std::vector<ScenarioSpec> specs = ParseScenarios(in, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "light");
  EXPECT_EQ(specs[0].measure_cycles, 40);
  EXPECT_EQ(specs[0].workload.rho, 0.3);
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_EQ(specs[1].name, "heavy#0");
  EXPECT_EQ(specs[2].name, "heavy#1");
  EXPECT_EQ(specs[2].seed, specs[1].seed + kReplicationSeedStride);
  EXPECT_EQ(specs[1].workload.sizes.kind, traffic::SizeDistribution::Kind::kFixed);
  EXPECT_FALSE(specs[1].mac.use_second_control_field);
  // Section values don't leak back into defaults-based sections.
  EXPECT_TRUE(specs[0].mac.use_second_control_field);
}

TEST(ScenarioIoTest, ParsesChannelsChurnAndDownlink) {
  std::istringstream in(
      "[noisy]\n"
      "reverse_channel = ge 0.01 0.1 0.0001 0.6\n"
      "forward_channel = uniform 0.02\n"
      "erasure_side_information = true\n"
      "downlink_interarrival_cycles = 4\n"
      "downlink_sizes = fixed 220\n"
      "churn.arrivals = 6\n"
      "churn.sign_off = on\n");
  std::string error;
  const std::vector<ScenarioSpec> specs = ParseScenarios(in, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioSpec& s = specs[0];
  EXPECT_EQ(s.reverse.kind, mac::ChannelModelConfig::Kind::kGilbertElliott);
  EXPECT_EQ(s.reverse.ge.p_bad_to_good, 0.1);
  EXPECT_EQ(s.forward.kind, mac::ChannelModelConfig::Kind::kUniform);
  EXPECT_EQ(s.forward.symbol_error_prob, 0.02);
  EXPECT_TRUE(s.erasure_side_information);
  EXPECT_EQ(s.workload.downlink_interarrival_cycles, 4.0);
  EXPECT_EQ(s.workload.downlink_sizes.fixed_bytes, 220);
  EXPECT_EQ(s.churn.arrivals, 6);
  EXPECT_TRUE(s.churn.sign_off_after_sample);
}

TEST(ScenarioIoTest, RejectsTheRetiredFastChannelKey) {
  // There is one sampler per channel process now; a stale scenario file
  // that still asks to switch samplers must fail loudly.
  std::istringstream in("[a]\nfast_channel = true\n");
  std::string error;
  EXPECT_TRUE(ParseScenarios(in, &error).empty());
  EXPECT_NE(error.find("unknown key 'fast_channel'"), std::string::npos) << error;
}

TEST(ScenarioIoTest, RejectsOutOfRangeChannelProbabilities) {
  for (const char* text :
       {"reverse_channel = uniform 1.5\n", "forward_channel = uniform -0.1\n",
        "reverse_channel = ge 0.01 0.1 -0.5 7\n", "reverse_channel = ge 1.2 0.1 0 0.5\n",
        "forward_channel = ge 0.01 2 0 0.5\n"}) {
    std::istringstream in(text);
    std::string error;
    EXPECT_TRUE(ParseScenarios(in, &error).empty()) << text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find(std::string(text).substr(0, 15)), std::string::npos) << error;
    EXPECT_NE(error.find("[0, 1]"), std::string::npos) << error;
  }
  std::istringstream edges("[x]\nforward_channel = uniform 0\nreverse_channel = ge 1 0 0 1\n");
  std::string error;
  EXPECT_EQ(ParseScenarios(edges, &error).size(), 1u) << error;
}

TEST(ScenarioIoTest, RejectsUnknownKeysWithLineNumbers) {
  // Retired keys (collect_registry, churn.gps) are as unknown as a typo.
  for (const char* line : {"bogus_knob = 3", "collect_registry = true", "churn.gps = true"}) {
    std::istringstream in(std::string("[a]\nrho = 0.5\n") + line + "\n");
    std::string error;
    EXPECT_TRUE(ParseScenarios(in, &error).empty()) << line;
    const std::string key(line, std::string(line).find(' '));
    EXPECT_NE(error.find("line 3: unknown key '" + key + "'"), std::string::npos) << error;
  }
}

TEST(ScenarioIoTest, RejectsMalformedValues) {
  for (const char* text : {"rho = fast\n", "sizes = gaussian 10\n",
                           "reverse_channel = rician 3\n", "[x]\nrho 0.5\n"}) {
    std::istringstream in(text);
    std::string error;
    EXPECT_TRUE(ParseScenarios(in, &error).empty()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // Negative cycle counts are rejected with the key named.
  for (const char* key : {"registration_cycles", "warmup_cycles", "measure_cycles"}) {
    std::istringstream in(std::string("[x]\n") + key + " = -3\n");
    std::string error;
    EXPECT_TRUE(ParseScenarios(in, &error).empty()) << key;
    EXPECT_NE(error.find(std::string("'") + key + "' must be >= 0"), std::string::npos)
        << error;
  }
}

// A scenario the run path would CHECK-abort on fails to parse instead, at
// the line that set the offending key and naming it.
void ExpectSpecError(const std::string& text, const std::string& line,
                     const std::string& key) {
  std::istringstream in(text);
  std::string error;
  EXPECT_TRUE(ParseScenarios(in, &error).empty()) << text;
  EXPECT_EQ(error.rfind(line + ": ", 0), 0u) << error;
  EXPECT_NE(error.find(key), std::string::npos) << error;
}

TEST(ScenarioIoTest, RejectsNonFiniteNumbers) {
  for (const char* key : {"rho", "downlink_rho", "downlink_interarrival_cycles"}) {
    for (const char* value : {"inf", "-inf", "nan", "1e999"}) {
      ExpectSpecError(std::string("[a]\n") + key + " = " + value + "\n", "line 2",
                      std::string("expected a finite number for '") + key + "'");
    }
  }
}

TEST(ScenarioIoTest, RejectsLoadIndicesAboveTheBound) {
  ExpectSpecError("[a]\nrho = 1e9\n", "line 2",
                  "'rho' = 1e+09: a load index must be at most 10");
  ExpectSpecError("[a]\nseed = 3\ndownlink_rho = 10.5\n", "line 3", "'downlink_rho'");
  std::istringstream ok("[a]\nrho = 10\ndownlink_rho = -1\n");
  std::string error;
  EXPECT_EQ(ParseScenarios(ok, &error).size(), 1u) << error;
}

TEST(ScenarioIoTest, RejectsNegativeDataUsers) {
  ExpectSpecError("[a]\nrho = 0.5\ndata_users = -1\n", "line 3", "'data_users' must be >= 0");
}

TEST(ScenarioIoTest, RejectsMoreGpsUsersThanTheOsuCellAdmits) {
  ExpectSpecError("[a]\ngps_users = 9\n", "line 2", "mac.max_gps_users = 8");
}

TEST(ScenarioIoTest, RejectsNegativeMaxGpsUsers) {
  ExpectSpecError("[a]\nmac.max_gps_users = -1\n", "line 2", "mac.max_gps_users = -1");
}

TEST(ScenarioIoTest, RejectsMinContentionSlotsBelowOne) {
  ExpectSpecError("[a]\nmac.min_contention_slots = -4\n", "line 2",
                  "'mac.min_contention_slots' must be >= 1");
  // A policy tenant has no contention controller, so the rule is OSU-only.
  std::istringstream in("[a]\nmac = rqma\nmac.min_contention_slots = 0\n");
  std::string error;
  EXPECT_EQ(ParseScenarios(in, &error).size(), 1u) << error;
}

TEST(ScenarioIoTest, RejectsPolicyPopulationsBeyondTheUserIdSpace) {
  // The blame goes to the later of the two lines involved.
  ExpectSpecError("data_users = 300\n[a]\nmac = rqma\n", "line 3", "data_users = 300");
  std::istringstream fits("[a]\nmac = pca\ndata_users = 59\n");
  std::string error;
  EXPECT_EQ(ParseScenarios(fits, &error).size(), 1u) << error;
}

TEST(ScenarioIoTest, RejectsAChurnGapRangeThatRunsBackwards) {
  ExpectSpecError("[a]\nchurn.arrivals = 3\nchurn.gap_lo_cycles = 5\nchurn.gap_hi_cycles = 1\n",
                  "line 4", "churn.gap_lo_cycles = 5, churn.gap_hi_cycles = 1");
}

TEST(ScenarioIoTest, SeedTakesTheFullUint64RangeAndNoSign) {
  std::istringstream max("seed = 18446744073709551615\n");
  std::string error;
  const std::vector<ScenarioSpec> specs = ParseScenarios(max, &error);
  ASSERT_EQ(specs.size(), 1u) << error;
  EXPECT_EQ(specs[0].seed, 18446744073709551615ull);
  for (const char* seed : {"-1", "+7", "18446744073709551616", " 7x"}) {
    ScenarioSpec spec;
    EXPECT_FALSE(ApplyScenarioKey(spec, "seed", seed, nullptr, &error)) << seed;
    EXPECT_NE(error.find("'seed'"), std::string::npos) << error;
  }
}

TEST(ScenarioIoTest, ParseIntTakesWholeIntsOnly) {
  int n = 0;
  EXPECT_TRUE(ParseInt("-42", &n));
  EXPECT_EQ(n, -42);
  for (const char* text : {"", "abc", "2x", "4294967298", "1.5"}) {
    EXPECT_FALSE(ParseInt(text, &n)) << text;
  }
  // Trailing junk after a channel or size value is an error too.
  std::string error;
  ScenarioSpec spec;
  EXPECT_FALSE(ApplyScenarioKey(spec, "reverse_channel", "uniform 0.02x", nullptr, &error));
  EXPECT_FALSE(ApplyScenarioKey(spec, "sizes", "fixed 120 bytes", nullptr, &error));
}

TEST(EmitTest, CsvHasHeaderAndOneRowPerResult) {
  std::vector<ScenarioSpec> specs = {LoadPoint(0.3), LoadPoint(0.5)};
  for (ScenarioSpec& s : specs) {
    s.warmup_cycles = 5;
    s.measure_cycles = 20;
  }
  const std::vector<RunResult> results = SweepRunner(1).Run(specs);
  std::ostringstream out;
  WriteSweepCsv(out, specs, results);
  const std::string csv = out.str();
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
  EXPECT_EQ(csv.rfind("name,seed,rho,", 0), 0u);
  EXPECT_NE(csv.find("rho_0.3,2001,0.3,10,4,20,"), std::string::npos) << csv;
}

TEST(EmitTest, JsonCarriesProvenanceSpecsAndFullPrecisionMetrics) {
  std::vector<ScenarioSpec> specs = {LoadPoint(0.8)};
  specs[0].warmup_cycles = 5;
  specs[0].measure_cycles = 20;
  const std::vector<RunResult> results = SweepRunner(1).Run(specs);
  std::ostringstream out;
  WriteSweepJson(out, "exp_test", 4, 1.5, specs, results);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"exp_test\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"points\": ["), std::string::npos);
  EXPECT_NE(json.find("\"utilization\": "), std::string::npos);
  EXPECT_NE(json.find("\"data_packets_received\": "), std::string::npos);
  // Full precision: the utilization value in the JSON reparses to the
  // exact double the run produced.
  const std::size_t pos = json.find("\"utilization\": ") + 15;
  EXPECT_DOUBLE_EQ(std::stod(json.substr(pos)), results[0].figure.utilization);
}

TEST(ParallelTest, ParallelMapPreservesOrder) {
  // The ordered-map idiom the non-Cell harnesses use (bench_baselines):
  // each worker writes only its own index's slot.
  std::vector<int> squares(100);
  ParallelForIndex(100, 8,
                   [&](int i) { squares[static_cast<std::size_t>(i)] = i * i; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelTest, ResolveJobsDefaultsToHardware) {
  EXPECT_GE(ResolveParallelism(0), 1);
  EXPECT_EQ(ResolveParallelism(3), 3);
}

TEST(ParallelTest, JobsFromArgsParsesBothForms) {
  const char* argv1[] = {"bench", "--jobs", "4"};
  EXPECT_EQ(JobsFromArgs(3, const_cast<char**>(argv1)).value_or(-1), 4);
  const char* argv2[] = {"bench", "--jobs=7"};
  EXPECT_EQ(JobsFromArgs(2, const_cast<char**>(argv2)).value_or(-1), 7);
  const char* argv3[] = {"bench"};
  EXPECT_EQ(JobsFromArgs(1, const_cast<char**>(argv3), 2).value_or(-1), 2);
  const char* argv4[] = {"bench", "-j", "0"};
  EXPECT_EQ(JobsFromArgs(3, const_cast<char**>(argv4), 2).value_or(-1), 0);
}

TEST(ParallelTest, JobsFromArgsRejectsMalformedValues) {
  for (const char* bad : {"abc", "2x", "-1", "", "99999999999"}) {
    std::string error;
    const char* spaced[] = {"bench", "--jobs", bad};
    EXPECT_FALSE(JobsFromArgs(3, const_cast<char**>(spaced), 1, &error).has_value())
        << bad;
    EXPECT_EQ(error.rfind(std::string("--jobs ") + bad + ":", 0), 0u) << error;
    const std::string joined = std::string("--jobs=") + bad;
    const char* equals[] = {"bench", joined.c_str()};
    error.clear();
    EXPECT_FALSE(JobsFromArgs(2, const_cast<char**>(equals), 1, &error).has_value())
        << bad;
    EXPECT_EQ(error.rfind(std::string("--jobs ") + bad + ":", 0), 0u) << error;
  }
  std::string error;
  const char* missing[] = {"bench", "--jobs"};
  EXPECT_FALSE(JobsFromArgs(2, const_cast<char**>(missing), 1, &error).has_value());
  EXPECT_EQ(error, "--jobs needs a value");
  // A second --jobs used to be ignored, its value unchecked.
  for (const char* second : {"x", "4"}) {
    const char* twice[] = {"bench", "--jobs", "2", "-j", second};
    EXPECT_FALSE(JobsFromArgs(5, const_cast<char**>(twice), 1, &error).has_value());
    EXPECT_EQ(error, "--jobs given more than once");
  }
}

}  // namespace
}  // namespace osumac::exp
