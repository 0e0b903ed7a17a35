// Extension bench: the Section-4 survey protocols (PRMA, D-TDMA, RAMA,
// DRMA, slotted ALOHA) on a common abstract slotted channel, swept over
// offered load.  The paper declines this comparison as unfair between
// full systems; here it isolates just the *contention mechanisms*, which
// is what the survey discusses (e.g. "PRMA suffers from low utilization in
// medium to heavy traffic loads").
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;
using namespace osumac::baselines;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_baselines");
  const int jobs = bench::JobsFlag(argc, argv);

  // Each grid cell is independent (own protocol instance, own Rng), so the
  // load x protocol grid fans out over the workers, each writing its own
  // result slot.
  const std::vector<std::function<std::unique_ptr<BaselineProtocol>()>> factories = {
      [] { return std::make_unique<SlottedAloha>(); },
      [] { return std::make_unique<Prma>(); },
      [] { return std::make_unique<Dtdma>(); },
      [] { return std::make_unique<Fama>(); },
      [] { return std::make_unique<Rqma>(); },
      [] { return std::make_unique<Rama>(); },
      [] { return std::make_unique<Drma>(); },
  };
  const std::vector<double> loads = {0.05, 0.2, 0.4, 0.8, 1.6};

  const int count = static_cast<int>(loads.size() * factories.size());
  std::vector<BaselineResult> results(static_cast<std::size_t>(count));
  ParallelForIndex(count, jobs, [&](int i) {
    const std::size_t load_index = static_cast<std::size_t>(i) / factories.size();
    const std::size_t protocol_index = static_cast<std::size_t>(i) % factories.size();
    BaselineWorkload workload;
    workload.data_stations = 20;
    workload.packets_per_station_per_frame = loads[load_index];
    workload.frames = 4000;
    Rng rng(42);
    results[static_cast<std::size_t>(i)] =
        factories[protocol_index]()->Run(workload, rng);
  });

  std::printf("Survey protocols on a 16-slot frame, 20 data stations\n");
  std::printf("%-14s %8s %11s %11s %11s %9s\n", "protocol", "offered", "throughput",
              "delay(frm)", "collisions", "dropped");
  std::size_t next = 0;
  for (const double per_station : loads) {
    std::printf("-- offered load %.2f packets/slot --\n", per_station * 20 / 16.0);
    for (std::size_t p = 0; p < factories.size(); ++p) {
      const BaselineResult& r = results[next++];
      std::printf("%-14s %8.3f %11.3f %11.2f %11.3f %9lld\n", r.protocol.c_str(),
                  r.offered_load, r.throughput, r.mean_delay_frames, r.collision_rate,
                  static_cast<long long>(r.dropped));
    }
  }
  std::printf("\n(expected: ALOHA saturates near 1/e; PRMA degrades at heavy load;\n"
              " RAMA's auctions are collision-free; DRMA approaches full usage;\n"
              " FAMA pays only minislots for collisions; RQMA drops late packets\n"
              " instead of queueing unboundedly)\n");
  return 0;
}
