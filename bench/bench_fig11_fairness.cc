// Regenerates Figure 11: Jain's fairness index of the bandwidth acquired
// by the data subscribers under the round-robin scheduler, versus load.
//
// Expected (paper): > 0.99 under all traffic loads.  At light load the
// index also reflects Poisson traffic variance (users barely offer
// anything), so the bench runs long enough for shares to even out.
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_fig11_fairness");
  const int jobs = bench::JobsFlag(argc, argv);

  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : exp::LoadSweep()) {
    exp::ScenarioSpec point = exp::LoadPoint(rho);
    point.measure_cycles = 2000;  // long run so offered shares equalize
    specs.push_back(point);
  }
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  metrics::TablePrinter table({"rho", "fairness", "users"}, 12);
  std::printf("Figure 11: fairness of the round-robin reverse-channel scheduler\n");
  table.PrintHeader();
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.PrintRow({specs[i].workload.rho, results[i].figure.fairness_index,
                    static_cast<double>(specs[i].data_users)});
  }
  std::printf("\n(paper Fig. 11: fairness index above 0.99 at every load)\n");
  return 0;
}
