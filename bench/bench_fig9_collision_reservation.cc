// Regenerates Figure 9 (the paper's caption ordering): (a) probability of
// collision in contention slots and (b) average reservation latency, both
// versus the load index.
//
// Expected shape (paper, counter-intuitive): BOTH DECREASE as load grows,
// because at high load reservation requests ride piggybacked in the
// headers of scheduled data packets instead of contending.
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_fig9_collision_reservation");
  const int jobs = bench::JobsFlag(argc, argv);

  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : exp::LoadSweep()) specs.push_back(exp::LoadPoint(rho));
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  metrics::TablePrinter table(
      {"rho", "coll_prob", "resv_latency", "collisions", "resv_pkts", "piggybacked"}, 13);
  std::printf("Figure 9: contention-slot collision probability and reservation latency\n");
  table.PrintHeader();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::RunResult& r = results[i];
    // Piggybacked demand updates = data packets carrying a non-zero
    // more_slots field; approximate with decoded data packets minus
    // contention data (every scheduled packet may carry the field).
    table.PrintRow({specs[i].workload.rho, r.figure.collision_probability,
                    r.figure.mean_reservation_latency,
                    static_cast<double>(r.bs.collisions),
                    static_cast<double>(r.bs.reservation_packets_received),
                    static_cast<double>(r.bs.data_packets_received -
                                        r.bs.contention_data_received)});
  }
  std::printf("\n(latency in cycles from first reservation attempt to its ACK;\n"
              " paper Fig. 9 shape: both curves decrease with load)\n");
  return 0;
}
