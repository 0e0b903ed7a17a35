// Ablation bench: the downlink ARQ extension vs the paper's unacknowledged
// forward channel.
//
// The paper keeps the forward channel unacknowledged because reverse
// bandwidth is scarce; this bench quantifies both sides of that trade on a
// fading forward channel with simultaneous uplink load:
//   - downlink residual loss rate (ARQ should drive it to ~0),
//   - reverse-link utilization (ARQ's ack packets eat into it),
//   - uplink packet delay (ack packets compete for slots).
#include <cstdio>

#include <algorithm>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_ablation_arq");
  const int jobs = bench::JobsFlag(argc, argv);

  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : {0.3, 0.6, 0.9}) {
    for (const bool arq : {false, true}) specs.push_back(ArqSpec(arq, rho));
  }
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  std::printf("Ablation: downlink ARQ (extension) vs the paper's unacked forward channel\n");
  std::printf("Fading forward channel (Gilbert-Elliott), downlink e-mail + uplink load\n\n");
  std::printf("%8s %10s | %12s %10s %10s %8s %8s\n", "up_rho", "variant", "dl_loss",
              "rev_util", "up_delay", "retx", "acks");
  std::size_t next = 0;
  for (const double rho : {0.3, 0.6, 0.9}) {
    for (const bool arq : {false, true}) {
      const exp::RunResult& r = results[next++];
      std::printf("%8.1f %10s | %12.4f %10.3f %10.2f %8lld %8lld\n", rho,
                  arq ? "ARQ" : "paper", DownlinkLoss(r), r.figure.utilization,
                  r.figure.mean_packet_delay_cycles,
                  static_cast<long long>(r.bs.forward_retransmissions),
                  static_cast<long long>(r.bs.forward_acks_received));
    }
  }
  std::printf("\n(expected: ARQ eliminates residual downlink loss at the cost of\n"
              " reverse-channel ack traffic, which grows with downlink volume)\n");
  return 0;
}
