// Ablation bench: dynamic contention-slot adjustment (Section 3.5) on/off.
//
// A registration storm hits a loaded cell.  With the dynamic controller the
// base station converts data slots into extra contention slots while the
// collision rate is high and reclaims them afterwards; the static variant
// keeps the single configured contention slot.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_ablation_contention");
  const int jobs = bench::JobsFlag(argc, argv);
  const int repeats = 5;

  // Saturated background of 6 veterans, then 6 churn arrivals all at once
  // (gap 0): the storm.  Stats keep accumulating through the storm
  // (reset_stats = false) and arrivals are sampled at the end of the run,
  // with the full 60-cycle window as the straggler fallback.
  std::vector<exp::ScenarioSpec> specs;
  for (const bool dynamic : {true, false}) {
    for (int rep = 0; rep < repeats; ++rep) {
      exp::ScenarioSpec spec;
      spec.name = std::string(dynamic ? "dynamic" : "static") + "#" + std::to_string(rep);
      spec.data_users = 6;
      spec.gps_users = 0;
      spec.registration_cycles = 8;
      spec.warmup_cycles = 20;
      spec.measure_cycles = 60;
      spec.reset_stats_after_warmup = false;
      spec.workload.rho = 1.2;
      spec.churn.arrivals = 6;
      spec.mac.dynamic_contention_slots = dynamic;
      spec.seed = 100 + static_cast<std::uint64_t>(rep);
      specs.push_back(spec);
    }
  }
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  std::printf("Ablation: dynamic contention-slot adjustment during a 6-unit storm\n");
  std::printf("%-22s %10s %10s %10s %12s %12s\n", "variant", "p50", "p90", "max",
              "registered", "collisions");
  std::size_t next = 0;
  for (const bool dynamic : {true, false}) {
    double p50 = 0, p90 = 0, max = 0, reg = 0, coll = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      const exp::RunResult& r = results[next++];
      SampleSet latency;
      for (const double sample : r.churn_registration_latency) latency.Add(sample);
      p50 += latency.Median();
      p90 += latency.Quantile(0.9);
      max = std::max(max, latency.Max());
      reg += r.churn_registered;
      coll += static_cast<double>(r.bs.collisions);
    }
    std::printf("%-22s %10.1f %10.1f %10.0f %12.1f %12.1f\n",
                dynamic ? "dynamic (paper)" : "static (1 slot)", p50 / repeats,
                p90 / repeats, max, reg / repeats, coll / repeats);
  }
  std::printf("\n(latencies in cycles, averaged over 5 seeds; expected: the dynamic\n"
              " controller cuts storm registration latency at the cost of briefly\n"
              " borrowing data slots)\n");
  return 0;
}
