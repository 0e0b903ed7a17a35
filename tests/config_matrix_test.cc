// Configuration-matrix property test: run the same mixed scenario under
// every feature-toggle combination and assert the protocol invariants that
// must hold regardless of configuration.  Catches toggle interactions
// (e.g. ARQ x no-second-CF, static GPS x erasures) that single-feature
// tests cannot.
#include <gtest/gtest.h>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "mac/cell.h"

namespace osumac {
namespace {

using mac::Cell;
using mac::ChannelModelConfig;

struct ConfigCase {
  bool second_cf;
  bool dynamic_gps;
  bool dynamic_contention;
  bool arq;
  bool erasures;
  bool noisy;
};

std::string CaseName(const ::testing::TestParamInfo<ConfigCase>& info) {
  const ConfigCase& c = info.param;
  std::string name;
  name += c.second_cf ? "cf2_" : "nocf2_";
  name += c.dynamic_gps ? "dyngps_" : "statgps_";
  name += c.dynamic_contention ? "dyncont_" : "statcont_";
  name += c.arq ? "arq_" : "noarq_";
  name += c.erasures ? "ei_" : "noei_";
  name += c.noisy ? "noisy" : "clean";
  return name;
}

class ConfigMatrixTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigMatrixTest, InvariantsHoldUnderEveryToggleCombination) {
  const ConfigCase& c = GetParam();
  exp::ScenarioSpec spec;
  spec.name = "config_matrix";
  spec.data_users = 6;
  spec.gps_users = 2;
  spec.registration_cycles = 15;
  // The 40 pre-churn cycles ride in the warm-up phase; stats accumulate
  // from the start (no reset) exactly as the original scenario ran.
  spec.warmup_cycles = 40;
  spec.measure_cycles = 60;
  spec.reset_stats_after_warmup = false;
  spec.seed = 701;
  spec.workload.rho = 0.6;
  // Downlink modest enough that even the weakest arm (no second CF +
  // static GPS slots: six reverse slots) can carry the ARQ ack traffic —
  // overload behaviour is studied separately in make_figures'
  // ablation_arq.csv.
  spec.workload.downlink_interarrival_cycles = 14;
  spec.mac.use_second_control_field = c.second_cf;
  spec.mac.dynamic_gps_slots = c.dynamic_gps;
  spec.mac.dynamic_contention_slots = c.dynamic_contention;
  spec.mac.downlink_arq = c.arq;
  spec.erasure_side_information = c.erasures;
  if (c.noisy) {
    spec.reverse.kind = ChannelModelConfig::Kind::kGilbertElliott;
    spec.reverse.ge.p_good_to_bad = 0.004;
    spec.reverse.ge.p_bad_to_good = 0.12;
    spec.reverse.ge.error_prob_bad = 0.6;
    spec.forward.kind = ChannelModelConfig::Kind::kUniform;
    spec.forward.symbol_error_prob = 0.02;
  }

  exp::ScenarioRun run(spec);
  Cell& cell = run.cell();
  run.BuildPopulation();
  run.StartWorkloads();
  run.Warmup();

  // Mid-run churn: a bus leaves, another joins.
  const std::vector<int>& buses = run.gps_nodes();
  cell.RequestSignOff(buses[0]);
  const int newcomer = cell.AddSubscriber(true);
  cell.PowerOn(newcomer);
  run.Measure();

  // --- invariants, independent of configuration -----------------------------
  const auto& bs = cell.base_station().counters();
  const auto& cm = cell.metrics();

  // Conservation: never deliver more than offered, per-user shares sum up.
  EXPECT_LE(cm.unique_payload_bytes, cm.offered_bytes);
  std::int64_t share_sum = 0;
  for (const auto& [uid, bytes] : cm.per_user_bytes) share_sum += bytes;
  EXPECT_EQ(share_sum, cm.unique_payload_bytes);

  // Liveness: the cell moves real traffic under every configuration.
  EXPECT_GT(bs.data_packets_received, 50);
  EXPECT_GT(cm.unique_payload_bytes, 0);

  // Temporal QoS: active buses never miss the 4-second bound.
  for (int b : {buses[1], newcomer}) {
    const auto& st = cell.subscriber(b).stats();
    if (!st.gps_access_delay_seconds.empty()) {
      EXPECT_LT(st.gps_access_delay_seconds.Max(), 4.0) << "bus " << b;
    }
    EXPECT_GT(st.gps_reports_sent, 30) << "bus " << b;
  }

  // Structural: GPS slots stay a dense prefix iff dynamic adjustment is on.
  if (c.dynamic_gps) {
    EXPECT_TRUE(cell.base_station().gps_manager().IsDensePrefix());
  }

  // The disabled-CF2 design never uses the last reverse data slot.
  if (!c.second_cf) {
    EXPECT_EQ(bs.last_slot_data_packets, 0);
  }

  // ARQ machinery only runs when enabled.
  if (!c.arq) {
    EXPECT_EQ(bs.forward_retransmissions, 0);
    EXPECT_EQ(bs.forward_acks_received, 0);
  }

  // Clean channels never lose forward packets (scheduler correctness);
  // noisy ones must still deliver most downlink traffic.
  if (!c.noisy) {
    EXPECT_EQ(cm.forward_packets_lost, 0);
  }
}

std::vector<ConfigCase> AllCases() {
  std::vector<ConfigCase> cases;
  for (bool second_cf : {true, false}) {
    for (bool dynamic_gps : {true, false}) {
      for (bool dynamic_contention : {true, false}) {
        for (bool arq : {true, false}) {
          for (bool noisy : {true, false}) {
            // Erasure side info only does anything on the noisy channel;
            // pair it with noise to keep the matrix at 32 runs.
            cases.push_back(
                {second_cf, dynamic_gps, dynamic_contention, arq, noisy, noisy});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllToggles, ConfigMatrixTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

}  // namespace
}  // namespace osumac
