// Tests for the pluggable MAC-policy layer: the refactored OSU tenant must
// reproduce the pre-refactor engine bit for bit (golden values pinned from
// the seed run), the ported RQMA and PCA tenants must run clean under the
// per-carrier protocol auditor, policy sweeps must stay bit-identical at
// any worker count, and the scenario `mac` key must parse and validate.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/policy_audit.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/scenario_io.h"
#include "mac/mac_policy.h"
#include "mac/policy_cell.h"

namespace osumac::exp {
namespace {

/// The golden spec: LoadPoint(0.8) shortened to test length.  The expected
/// values below were captured from the pre-refactor engine (Cell before the
/// CellSubstrate/MacPolicy decomposition) and pin the refactor to bit
/// identity — every literal is %.17g, so EXPECT_EQ on doubles is exact.
ScenarioSpec GoldenSpec() {
  ScenarioSpec spec = LoadPoint(0.8);
  spec.name = "mac_policy_golden";
  spec.warmup_cycles = 10;
  spec.measure_cycles = 80;
  return spec;
}

TEST(MacPolicyTest, OsuTenantReproducesPreRefactorGoldenRun) {
  const RunResult r = RunScenario(GoldenSpec());
  EXPECT_EQ(r.figure.utilization, 0.62535511363636365);
  EXPECT_EQ(r.figure.mean_packet_delay_cycles, 4.1169428429108388);
  EXPECT_EQ(r.figure.mean_message_delay_cycles, 4.7421148019992296);
  EXPECT_EQ(r.figure.collision_probability, 0.12727272727272726);
  EXPECT_EQ(r.figure.fairness_index, 0.78162889186185636);
  EXPECT_EQ(r.figure.gps_access_delay_max_s, 3.7682291666666665);
  EXPECT_EQ(r.bs.data_packets_received, 433);
  EXPECT_EQ(r.bs.collisions, 7);
  EXPECT_EQ(r.bs.payload_bytes_received, 17610);
  EXPECT_EQ(r.unique_payload_bytes, 17610);
  const obs::SloClassSummary& gps =
      r.slo[static_cast<std::size_t>(obs::SloClass::kGpsAccess)];
  EXPECT_EQ(gps.count, 320);
  EXPECT_EQ(gps.misses, 0);
  EXPECT_EQ(gps.near_misses, 80);
}

/// Runs one policy spec with the per-carrier auditor attached and returns
/// the result; fails the test on any schedule/transmission violation.
RunResult RunAudited(const ScenarioSpec& spec) {
  analysis::PolicyAuditor auditor;
  RunHooks hooks;
  hooks.policy_after_build = [&auditor](mac::PolicyCell& cell) {
    cell.AddObserver(&auditor);
  };
  const RunResult result = RunScenario(spec, hooks);
  EXPECT_TRUE(auditor.violations().empty()) << auditor.Report();
  EXPECT_GT(auditor.cycles_audited(), 0);
  return result;
}

ScenarioSpec PolicySpec(const std::string& policy, double rho) {
  ScenarioSpec spec = LoadPoint(rho);
  spec.name = "mac_" + policy + "_" + spec.name;
  spec.mac_policy = policy;
  spec.warmup_cycles = 10;
  spec.measure_cycles = 80;
  return spec;
}

TEST(MacPolicyTest, RqmaTenantRunsCleanUnderAuditor) {
  const RunResult r = RunAudited(PolicySpec("rqma", 0.8));
  EXPECT_GT(r.bs.data_packets_received, 0);
  EXPECT_GT(r.bs.gps_packets_received, 0);
  EXPECT_GT(r.figure.utilization, 0.0);
  EXPECT_LT(r.figure.utilization, 1.0);
  // RQMA contends for request slots, so the contention stats are live.
  EXPECT_GT(r.bs.reservation_packets_received, 0);
  EXPECT_GT(r.bs.contention_slot_cycles, 0);
  // The substrate's per-user byte ledger reaches Jain fairness (the ported
  // tenants must not report the OSU default of 0).
  EXPECT_GT(r.figure.fairness_index, 0.0);
  const obs::SloClassSummary& gps =
      r.slo[static_cast<std::size_t>(obs::SloClass::kGpsAccess)];
  EXPECT_GT(gps.count, 0);
}

TEST(MacPolicyTest, PcaTenantRunsCleanUnderAuditor) {
  const RunResult r = RunAudited(PolicySpec("pca", 0.9));
  EXPECT_GT(r.bs.data_packets_received, 0);
  EXPECT_GT(r.bs.gps_packets_received, 0);
  // PCA is fully scheduled (no contention) across two carriers.
  EXPECT_EQ(r.bs.collisions, 0);
  EXPECT_EQ(r.figure.collision_probability, 0.0);
  EXPECT_GT(r.figure.fairness_index, 0.0);
}

TEST(MacPolicyTest, PolicySweepIsBitIdenticalAcrossWorkerCounts) {
  std::vector<ScenarioSpec> specs;
  for (const std::string& policy : mac::KnownMacPolicies()) {
    specs.push_back(PolicySpec(policy, 0.5));
    specs.push_back(PolicySpec(policy, 1.0));
  }
  const std::vector<RunResult> serial = SweepRunner(1).Run(specs);
  const std::vector<RunResult> parallel = SweepRunner(4).Run(specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(ResultSignature(serial[i]), ResultSignature(parallel[i]))
        << specs[i].name;
  }
}

TEST(MacPolicyTest, PolicySeedStreamIsIndependent) {
  // Same seed, different tenants: the substrate's channel/uplink streams
  // are shared but the plans differ, so the results must differ.
  const RunResult rqma = RunScenario(PolicySpec("rqma", 0.8));
  const RunResult pca = RunScenario(PolicySpec("pca", 0.8));
  EXPECT_NE(rqma.bs.data_packets_received, pca.bs.data_packets_received);
  // Different seeds perturb a contention-based tenant's draws.
  ScenarioSpec reseeded = PolicySpec("rqma", 0.8);
  reseeded.seed += 1;
  const RunResult other = RunScenario(reseeded);
  EXPECT_NE(ResultSignature(rqma), ResultSignature(other));
}

TEST(MacPolicyTest, ScenarioFileSelectsPolicyWithMacKey) {
  std::istringstream in(
      "warmup_cycles = 5\n"
      "measure_cycles = 10\n"
      "[osu_point]\n"
      "rho = 0.5\n"
      "[rqma_point]\n"
      "rho = 0.5\n"
      "mac = rqma\n"
      "[pca_point]\n"
      "rho = 0.5\n"
      "mac = pca\n");
  std::string error;
  const std::vector<ScenarioSpec> specs = ParseScenarios(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].mac_policy, "osu");
  EXPECT_EQ(specs[1].mac_policy, "rqma");
  EXPECT_EQ(specs[2].mac_policy, "pca");
  EXPECT_EQ(specs[0].Describe().find("mac="), std::string::npos);
  EXPECT_NE(specs[1].Describe().find("mac=rqma"), std::string::npos);
}

TEST(MacPolicyTest, ScenarioFileRejectsUnknownPolicy) {
  std::istringstream in(
      "[bad]\n"
      "mac = tdma\n");
  std::string error;
  const std::vector<ScenarioSpec> specs = ParseScenarios(in, &error);
  EXPECT_TRUE(specs.empty());
  EXPECT_NE(error.find("unknown MAC policy 'tdma'"), std::string::npos) << error;
}

TEST(MacPolicyTest, ScenarioRunDrivesEveryTenantLikeRunScenario) {
  // One phase ladder for every tenant: the phase API must build the
  // spec's own driver (not an OSU cell) and agree with the serial runner,
  // and each hook of the tenant's family fires exactly once.
  for (const std::string& policy : mac::KnownMacPolicies()) {
    const ScenarioSpec spec = PolicySpec(policy, 0.8);
    const RunResult phased = ScenarioRun(spec).Execute();
    int osu_build = 0, osu_warmup = 0, osu_finish = 0;
    int policy_build = 0, policy_finish = 0;
    RunHooks hooks;
    hooks.after_build = [&](mac::Cell&) { ++osu_build; };
    hooks.after_warmup = [&](mac::Cell&) { ++osu_warmup; };
    hooks.before_finish = [&](mac::Cell&) { ++osu_finish; };
    hooks.policy_after_build = [&](mac::PolicyCell&) { ++policy_build; };
    hooks.policy_before_finish = [&](mac::PolicyCell&) { ++policy_finish; };
    const RunResult serial = RunScenario(spec, hooks);
    EXPECT_EQ(ResultSignature(phased), ResultSignature(serial)) << policy;
    const int osu = policy == "osu" ? 1 : 0;
    EXPECT_EQ(osu_build, osu) << policy;
    EXPECT_EQ(osu_warmup, osu) << policy;
    EXPECT_EQ(osu_finish, osu) << policy;
    EXPECT_EQ(policy_build, 1 - osu) << policy;
    EXPECT_EQ(policy_finish, 1 - osu) << policy;
  }
}

TEST(MacPolicyTest, ScenarioFileRejectsOsuOnlyInputsOnPolicySections) {
  // The `mac` line comes last: the check runs once the section is whole.
  std::istringstream in(
      "[ok]\n"
      "rho = 0.5\n"
      "[rqma_storm]\n"
      "churn.arrivals = 10\n"
      "downlink_rho = 0.3\n"
      "mac = rqma\n");
  std::string error;
  const std::vector<ScenarioSpec> specs = ParseScenarios(in, &error);
  EXPECT_TRUE(specs.empty());
  EXPECT_NE(error.find("'rqma_storm'"), std::string::npos) << error;
  EXPECT_NE(error.find("downlink_rho"), std::string::npos) << error;

  ScenarioSpec spec = PolicySpec("pca", 0.5);
  EXPECT_EQ(SpecInputError(spec), "");
  spec.mac.dynamic_contention_slots = false;
  EXPECT_NE(SpecInputError(spec).find("mac.dynamic_contention"), std::string::npos);
  spec.mac_policy = "osu";
  EXPECT_EQ(SpecInputError(spec), "");
}

TEST(MacPolicyTest, SpecJsonCarriesMacKeyOnlyForPolicyRuns) {
  // The conditional `mac` field keeps OSU sweep artifacts byte-identical.
  const std::vector<ScenarioSpec> specs = {PolicySpec("rqma", 0.5),
                                           GoldenSpec()};
  const std::vector<RunResult> results = SweepRunner(1).Run(specs);
  std::ostringstream out;
  WriteSweepJson(out, "test", 1, 0.0, specs, results);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"mac\": \"rqma\""), std::string::npos);
  EXPECT_EQ(json.find("\"mac\": \"osu\""), std::string::npos);
}

}  // namespace
}  // namespace osumac::exp
