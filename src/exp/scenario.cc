#include "exp/scenario.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "exp/seed.h"
#include "mac/cycle_layout.h"

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

namespace {

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

}  // namespace

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

std::string TenantInputError(const ScenarioSpec& spec) {
  if (spec.mac_policy == "osu") return "";
  const mac::MacConfig d;
  const std::pair<bool, const char*> osu_only[] = {
      {spec.workload.downlink_rho > 0, "downlink_rho"},
      {spec.workload.downlink_interarrival_cycles > 0, "downlink_interarrival_cycles"},
      {spec.churn.arrivals > 0, "churn.arrivals"},
      {spec.mac.downlink_arq != d.downlink_arq, "mac.arq"},
      {spec.mac.use_second_control_field != d.use_second_control_field, "mac.second_cf"},
      {spec.mac.dynamic_gps_slots != d.dynamic_gps_slots, "mac.dynamic_gps"},
      {spec.mac.dynamic_contention_slots != d.dynamic_contention_slots,
       "mac.dynamic_contention"},
  };
  for (const auto& [set, key] : osu_only) {
    if (set) {
      return std::string(key) + " is an OSU-only input; the " + spec.mac_policy +
             " tenant is uplink-only and would ignore it";
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
