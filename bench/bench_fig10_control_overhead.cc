// Regenerates Figure 10: control overhead — the ratio of reservation
// packets (transmitted in contention slots) to data packets (transmitted
// in data slots) — versus the load index.
//
// Expected shape (paper): DECREASES with load, "because as the load
// increases, reservation requests are usually piggybacked in the
// reservation bit of the packets sent uplink".
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_fig10_control_overhead");
  const int jobs = bench::JobsFlag(argc, argv);

  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : exp::LoadSweep()) specs.push_back(exp::LoadPoint(rho));
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  metrics::TablePrinter table({"rho", "ctrl_overhead", "resv_sent", "data_sent"}, 14);
  std::printf("Figure 10: control overhead (reservation packets / data packets)\n");
  table.PrintHeader();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::RunResult& r = results[i];
    table.PrintRow({specs[i].workload.rho, r.figure.control_overhead,
                    static_cast<double>(r.bs.reservation_packets_received),
                    static_cast<double>(r.bs.data_packets_received)});
  }
  std::printf("\n(paper Fig. 10 shape: overhead decreases as load increases)\n");
  return 0;
}
