// Regenerates Figure 8: (a) reverse-link utilization and (b) packet delay
// versus the load index rho, for the paper's simulation scenario
// (variable-length messages uniform in [40, 500] bytes).
//
// Expected shapes (paper): utilization tracks the load while rho < 0.9 and
// falls below it as buffers overflow near saturation; delay stays at a few
// cycles under light/medium load and grows dramatically once the offered
// load crosses the usable capacity (the reserved contention slot and
// in-band headers put that crossover near rho ~ 0.8 in this
// implementation; see EXPERIMENTS.md).
//
// All points run through exp::SweepRunner; pass --jobs N to parallelize.
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_fig8_utilization_delay");
  const int jobs = bench::JobsFlag(argc, argv);
  constexpr int kReplications = 3;

  // Variable-length points (3 seed replications each), then the paper's
  // second workload: fixed 120-byte messages ("the results are found to be
  // quite robust" across both) — one flat spec list, one sweep.
  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : exp::LoadSweep()) {
    const std::vector<exp::ScenarioSpec> reps =
        exp::ExpandReplications(exp::LoadPoint(rho), kReplications);
    specs.insert(specs.end(), reps.begin(), reps.end());
  }
  for (const double rho : exp::LoadSweep()) {
    exp::ScenarioSpec point = exp::LoadPoint(rho);
    point.name += "_fixed120";
    point.workload.sizes = traffic::SizeDistribution::Fixed(120);
    specs.push_back(point);
  }
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  std::printf("Figure 8: utilization and packet delay vs load index\n");
  std::printf("-- variable-length messages, uniform 40-500 bytes (%d seeds) --\n",
              kReplications);
  std::printf("%11s%11s%11s%11s%11s%11s%11s%11s\n", "rho", "offered", "util",
              "util_sd", "pkt_delay", "delay_sd", "msg_delay", "drop_rate");
  std::size_t next = 0;
  for (const double rho : exp::LoadSweep()) {
    RunningStats offered, util, pkt_delay, msg_delay, drop;
    for (int r = 0; r < kReplications; ++r) {
      const exp::RunResult& run = results[next++];
      offered.Add(run.offered_load);
      util.Add(run.figure.utilization);
      pkt_delay.Add(run.figure.mean_packet_delay_cycles);
      msg_delay.Add(run.figure.mean_message_delay_cycles);
      drop.Add(run.figure.message_drop_rate);
    }
    std::printf("%11.4f%11.4f%11.4f%11.4f%11.4f%11.4f%11.4f%11.4f\n", rho,
                offered.mean(), util.mean(), util.stddev(), pkt_delay.mean(),
                pkt_delay.stddev(), msg_delay.mean(), drop.mean());
  }

  std::printf("\n-- fixed-length messages, 120 bytes --\n");
  std::printf("%11s%11s%11s%11s%11s\n", "rho", "offered", "util", "pkt_delay",
              "drop_rate");
  for (const double rho : exp::LoadSweep()) {
    const exp::RunResult& r = results[next++];
    std::printf("%11.4f%11.4f%11.4f%11.4f%11.4f\n", rho, r.offered_load,
                r.figure.utilization, r.figure.mean_packet_delay_cycles,
                r.figure.message_drop_rate);
  }
  std::printf("\n(delays in notification cycles of %.4f s; paper Fig. 8 shape: "
              "utilization ~ rho then saturates; delay flat then explodes)\n",
              ToSeconds(mac::kCycleTicks));
  return 0;
}
