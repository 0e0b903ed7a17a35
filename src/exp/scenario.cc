#include "exp/scenario.h"

#include <cstdio>
#include <initializer_list>
#include <utility>

#include "common/check.h"
#include "exp/seed.h"
#include "mac/cycle_layout.h"
#include "mac/ids.h"

namespace osumac::exp {

mac::CellConfig ScenarioSpec::BuildCellConfig() const {
  mac::CellConfig config;
  config.seed = DeriveSeed(seed, SeedStream::kCell);
  config.mac = mac;
  config.forward = forward;
  config.reverse = reverse;
  config.erasure_side_information = erasure_side_information;
  return config;
}

int ScenarioSpec::DataSlotsForLoad() const {
  return mac::ReverseCycleLayout(mac::FormatForGpsCount(gps_users)).data_slot_count();
}

const char* ChannelKindName(mac::ChannelModelConfig::Kind kind) {
  switch (kind) {
    case mac::ChannelModelConfig::Kind::kPerfect:
      return "perfect";
    case mac::ChannelModelConfig::Kind::kUniform:
      return "uniform";
    case mac::ChannelModelConfig::Kind::kGilbertElliott:
      return "ge";
  }
  return "?";
}

std::string ScenarioSpec::Describe() const {
  char buffer[512];
  std::snprintf(
      buffer, sizeof buffer,
      "name=%s rho=%g data-users=%d gps=%d cycles=%d warmup=%d seed=%llu "
      "sizes=%s channel=%s/%s",
      name.c_str(), workload.rho, data_users, gps_users, measure_cycles,
      warmup_cycles, static_cast<unsigned long long>(seed),
      workload.sizes.kind == traffic::SizeDistribution::Kind::kFixed ? "fixed"
                                                                     : "uniform",
      ChannelKindName(forward.kind), ChannelKindName(reverse.kind));
  std::string out = buffer;
  if (mac_policy != "osu") out += " mac=" + mac_policy;
  if (journal_every > 0) out += " journal-every=" + std::to_string(journal_every);
  return out;
}

std::string SpecInputError(const ScenarioSpec& spec, std::vector<std::string>* keys) {
  auto fail = [keys](std::string message, std::initializer_list<const char*> involved) {
    if (keys != nullptr) keys->assign(involved.begin(), involved.end());
    return message;
  };
  auto both = [](const char* a, int x, const char* b, int y) {
    return std::string(a) + " = " + std::to_string(x) + ", " + b + " = " +
           std::to_string(y);
  };
  const ChurnSpec& churn = spec.churn;
  const std::pair<int, const char*> counts[] = {
      {spec.data_users, "data_users"},
      {spec.gps_users, "gps_users"},
      {spec.registration_cycles, "registration_cycles"},
      {spec.warmup_cycles, "warmup_cycles"},
      {spec.measure_cycles, "measure_cycles"},
      {churn.arrivals, "churn.arrivals"},
      {churn.gap_lo_cycles, "churn.gap_lo_cycles"},
      {churn.gap_hi_cycles, "churn.gap_hi_cycles"},
      {churn.max_extra_wait_cycles, "churn.max_extra_wait_cycles"},
  };
  for (const auto& [value, key] : counts) {
    if (value < 0) return fail(std::string("'") + key + "' must be >= 0", {key});
  }
  const std::pair<double, const char*> loads[] = {
      {spec.workload.rho, "rho"},
      {spec.workload.downlink_rho, "downlink_rho"},
  };
  for (const auto& [value, key] : loads) {
    if (!(value <= kMaxLoadIndex)) {
      char bound[96];
      std::snprintf(bound, sizeof bound, "'%s' = %g: a load index must be at most %g",
                    key, value, kMaxLoadIndex);
      return fail(bound, {key});
    }
  }
  if (churn.gap_lo_cycles > churn.gap_hi_cycles) {
    return fail(both("churn.gap_lo_cycles", churn.gap_lo_cycles, "churn.gap_hi_cycles",
                     churn.gap_hi_cycles) +
                    ": the low gap exceeds the high gap",
                {"churn.gap_lo_cycles", "churn.gap_hi_cycles"});
  }

  if (spec.mac_policy == "osu") {
    if (spec.gps_users > spec.mac.max_gps_users) {
      return fail(both("gps_users", spec.gps_users, "mac.max_gps_users",
                       spec.mac.max_gps_users) +
                      ": more buses than the base station admits",
                  {"gps_users", "mac.max_gps_users"});
    }
    if (spec.mac.min_contention_slots < 1) {
      return fail("'mac.min_contention_slots' must be >= 1 (slot 0 stays "
                  "unassigned for the CF2 listener)",
                  {"mac.min_contention_slots"});
    }
    return "";
  }
  if (spec.data_users + spec.gps_users > mac::kMaxActiveUsers) {
    return fail(both("data_users", spec.data_users, "gps_users", spec.gps_users) +
                    ": the " + spec.mac_policy + " tenant has " +
                    std::to_string(mac::kMaxActiveUsers) + " user IDs",
                {"data_users", "gps_users", "mac"});
  }
  const mac::MacConfig d;
  const std::pair<bool, const char*> osu_only[] = {
      {spec.workload.downlink_rho > 0, "downlink_rho"},
      {spec.workload.downlink_interarrival_cycles > 0, "downlink_interarrival_cycles"},
      {churn.arrivals > 0, "churn.arrivals"},
      {spec.mac.downlink_arq != d.downlink_arq, "mac.arq"},
      {spec.mac.use_second_control_field != d.use_second_control_field, "mac.second_cf"},
      {spec.mac.dynamic_gps_slots != d.dynamic_gps_slots, "mac.dynamic_gps"},
      {spec.mac.dynamic_contention_slots != d.dynamic_contention_slots,
       "mac.dynamic_contention"},
  };
  for (const auto& [set, key] : osu_only) {
    if (set) {
      return fail(std::string(key) + " is an OSU-only input; the " + spec.mac_policy +
                      " tenant is uplink-only and would ignore it",
                  {key, "mac"});
    }
  }
  return "";
}

const std::vector<double>& LoadSweep() {
  static const std::vector<double> sweep = {0.3, 0.5, 0.8, 0.9, 1.0, 1.1};
  return sweep;
}

ScenarioSpec LoadPoint(double rho) {
  ScenarioSpec spec;
  char name[32];
  std::snprintf(name, sizeof name, "rho_%g", rho);
  spec.name = name;
  spec.workload.rho = rho;
  return spec;
}

std::vector<ScenarioSpec> ExpandReplications(const ScenarioSpec& spec,
                                             int replications) {
  OSUMAC_CHECK_GT(replications, 0);
  std::vector<ScenarioSpec> out;
  out.reserve(static_cast<std::size_t>(replications));
  for (int r = 0; r < replications; ++r) {
    ScenarioSpec copy = spec;
    copy.seed = spec.seed + kReplicationSeedStride * static_cast<std::uint64_t>(r);
    copy.name += '#';
    copy.name += std::to_string(r);
    out.push_back(std::move(copy));
  }
  return out;
}

}  // namespace osumac::exp
