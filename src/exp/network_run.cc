#include "exp/network_run.h"

#include "common/check.h"
#include "exp/seed.h"
#include "obs/profiler.h"

namespace osumac::exp {
namespace {

// Mobility and chatter of a measured window: every kWalkPeriodCycles each
// active mobile hands off with kHandoffProb, and kMessagesPerStep random
// subscriber pairs exchange a message of kMessageBytesLo..Hi bytes.
constexpr double kHandoffProb = 0.05;
constexpr int kWalkPeriodCycles = 3;
constexpr int kMessagesPerStep = 2;
constexpr int kMessageBytesLo = 40;
constexpr int kMessageBytesHi = 300;

}  // namespace

mac::CellConfig NetworkScenarioSpec::BuildCellConfig() const {
  mac::CellConfig config;
  config.mac = mac;
  config.seed = DeriveSeed(seed, SeedStream::kCell);
  return config;
}

NetworkScenarioRun::NetworkScenarioRun(const NetworkScenarioSpec& spec)
    : spec_(spec),
      network_(std::make_unique<mac::Network>(spec.BuildCellConfig(),
                                              spec.cells, spec.threads)),
      rng_(DeriveSeed(spec.seed, SeedStream::kNetwork)) {
  OSUMAC_CHECK_GT(spec_.cells, 0);
  OSUMAC_CHECK_GE(spec_.threads, 1);
  OSUMAC_CHECK_GE(spec_.data_users_per_cell, 0);
  OSUMAC_CHECK_GE(spec_.gps_users_per_cell, 0);
}

void NetworkScenarioRun::BuildPopulation() {
  OSUMAC_PROFILE_ZONE("exp.populate");
  for (int c = 0; c < spec_.cells; ++c) {
    for (int i = 0; i < spec_.data_users_per_cell; ++i) {
      network_->PowerOn(network_->AddSubscriber(c, /*wants_gps=*/false));
    }
    for (int i = 0; i < spec_.gps_users_per_cell; ++i) {
      network_->PowerOn(network_->AddSubscriber(c, /*wants_gps=*/true));
    }
  }
  network_->RunCycles(spec_.registration_cycles);
}

void NetworkScenarioRun::Warmup() {
  OSUMAC_PROFILE_ZONE("exp.warmup");
  network_->RunCycles(spec_.warmup_cycles);
  for (int c = 0; c < network_->cell_count(); ++c) {
    network_->cell(c).ResetStats();
  }
}

void NetworkScenarioRun::Measure() {
  OSUMAC_PROFILE_ZONE("exp.measure");
  const int subscribers = network_->subscriber_count();
  int remaining = spec_.measure_cycles;
  while (remaining > 0) {
    network_->RandomWalk(kHandoffProb, rng_);
    for (int k = 0; k < kMessagesPerStep && subscribers > 1; ++k) {
      const int a = static_cast<int>(rng_.UniformInt(0, subscribers - 1));
      const int b = static_cast<int>(rng_.UniformInt(0, subscribers - 1));
      if (a == b) continue;
      if (network_->subscriber(a).state() !=
          mac::MobileSubscriber::State::kActive) {
        continue;
      }
      const int bytes = static_cast<int>(
          rng_.UniformInt(kMessageBytesLo, kMessageBytesHi));
      if (network_->SendMessage(a, b, bytes)) ++messages_attempted_;
    }
    const int step = remaining < kWalkPeriodCycles ? remaining : kWalkPeriodCycles;
    network_->RunCycles(step);
    remaining -= step;
  }
}

RunResult NetworkScenarioRun::Finish() {
  OSUMAC_PROFILE_ZONE("exp.finish");
  RunResult result;
  result.name = spec_.name;
  result.seed = spec_.seed;
  result.measured_cycles = network_->cell(0).metrics().cycles;
  result.uplink_messages_offered = messages_attempted_;

  result.network.cells = network_->cell_count();
  result.network.subscribers = network_->subscriber_count();
  result.network.backbone_messages = network_->counters().backbone_messages;
  result.network.backbone_unrouted = network_->counters().backbone_unrouted;
  result.network.handoffs = network_->counters().handoffs;

  // The merged digest, not any single cell's: quantiles below come from the
  // roll-up of every cell's histograms (order-invariant by construction).
  result.slo = network_->SloRollup().Summary();
  return result;
}

RunResult NetworkScenarioRun::Execute() {
  BuildPopulation();
  Warmup();
  Measure();
  return Finish();
}

RunResult RunNetworkScenario(const NetworkScenarioSpec& spec) {
  NetworkScenarioRun run(spec);
  return run.Execute();
}

}  // namespace osumac::exp
