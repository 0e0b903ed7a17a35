// Robustness sweep (Section 5): "the number of GPS users varying from 1 to
// 8, and the number of data users varying from 5 to 14 ... the results are
// found to be quite robust in the sense that the conclusion drawn from the
// performance curves is valid over a wide range of parameter values."
//
// At a fixed medium load (rho = 0.7) the key quantities must stay in their
// bands across the whole population grid: utilization near the load, delay
// a few cycles, fairness high, and the GPS bound intact.
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_robustness");
  const int jobs = bench::JobsFlag(argc, argv);

  std::vector<exp::ScenarioSpec> specs;
  for (const int data_users : {5, 8, 11, 14}) {
    for (const int gps_users : {1, 3, 4, 8}) {
      exp::ScenarioSpec point = exp::LoadPoint(0.7);
      char name[32];
      std::snprintf(name, sizeof name, "d%d_g%d", data_users, gps_users);
      point.name = name;
      point.data_users = data_users;
      point.gps_users = gps_users;
      point.measure_cycles = 600;
      specs.push_back(point);
    }
  }
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  std::printf("Robustness grid at rho = 0.7: data users x GPS users\n");
  metrics::TablePrinter table(
      {"data", "gps", "util", "pkt_delay", "fairness", "coll_prob", "gps_max_s"}, 12);
  table.PrintHeader();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::RunResult& r = results[i];
    table.PrintRow({static_cast<double>(specs[i].data_users),
                    static_cast<double>(specs[i].gps_users), r.figure.utilization,
                    r.figure.mean_packet_delay_cycles, r.figure.fairness_index,
                    r.figure.collision_probability, r.figure.gps_access_delay_max_s});
  }
  std::printf("\n(the paper's robustness claim: every row shows the same regime —\n"
              " utilization ~ 0.65-0.75, delay in single-digit cycles, fairness\n"
              " > 0.95, GPS access delay < 4 s)\n");
  return 0;
}
