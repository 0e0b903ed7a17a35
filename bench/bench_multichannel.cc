// Extension bench: capacity scaling with multiple channel pairs per cell
// site (the paper's "a number of frequencies" system model; the 2001
// testbed used one pair).
//
// Each carrier is one cell of an exp::NetworkScenarioRun with no mobility
// and no chatter: a network of K cells in lockstep is exactly a site of K
// independent forward/reverse pairs.  A fixed, heavy offered load (about
// 2.2x one carrier's data capacity, plus 12 GPS buses) is split evenly over
// 1..4 carriers.  Expected: carried traffic scales ~linearly until the load
// is no longer the bottleneck, and 12 buses only obtain full 4-second QoS
// once two carriers provide 16 GPS slots.
#include <cstdint>
#include <cstdio>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

namespace {

constexpr int kDataUsers = 24;
constexpr int kBuses = 12;

exp::NetworkScenarioSpec SiteSpec(int carriers) {
  exp::NetworkScenarioSpec spec;
  spec.name = "multichannel";
  spec.cells = carriers;
  spec.data_users_per_cell = kDataUsers / carriers;
  spec.gps_users_per_cell = kBuses / carriers;
  spec.registration_cycles = 15;
  spec.warmup_cycles = 0;  // Warmup() is then just the stats reset
  spec.seed = 42;
  return spec;
}

}  // namespace

int main() {
  osumac::bench::PrintProvenance("bench_multichannel");
  std::printf("Capacity scaling with carriers (24 data users @ ~2.2x single-"
              "carrier load, 12 buses)\n");
  std::printf("%8s %12s %12s %12s %12s %12s\n", "carriers", "payload_kB",
              "agg_util", "gps_users", "gps_ok", "speedup");
  double base = 0;
  for (int carriers = 1; carriers <= 4; ++carriers) {
    exp::NetworkScenarioRun run(SiteSpec(carriers));
    run.BuildPopulation();
    run.Warmup();
    mac::Network& site = run.network();
    // Deterministic heavy load: each data user offers 6 packets every 3
    // cycles.
    for (int step = 0; step < 200; ++step) {
      for (int id = 0; id < site.subscriber_count(); ++id) {
        if (step % 3 != 0 || site.subscriber(id).is_gps()) continue;
        const mac::Network::Location at = site.WhereIs(id);
        site.cell(at.cell).SendUplinkMessage(at.node, 264);  // 6 packets
      }
      site.RunCycles(1);
    }
    site.RunCycles(20);

    int gps_ok = 0;
    for (int id = 0; id < site.subscriber_count(); ++id) {
      if (!site.subscriber(id).is_gps()) continue;
      const auto& st = site.subscriber(id).stats();
      if (!st.gps_access_delay_seconds.empty() &&
          st.gps_access_delay_seconds.Max() < 4.0 && st.gps_reports_sent > 180) {
        ++gps_ok;
      }
    }
    std::int64_t payload_bytes = 0;
    std::int64_t capacity_bytes = 0;
    int gps_users = 0;
    for (int c = 0; c < site.cell_count(); ++c) {
      const mac::Cell& cell = site.cell(c);
      payload_bytes += cell.metrics().unique_payload_bytes;
      capacity_bytes += cell.metrics().capacity_bytes;
      gps_users += cell.base_station().gps_manager().active_count();
    }
    const double payload = static_cast<double>(payload_bytes);
    const double util =
        capacity_bytes > 0 ? payload / static_cast<double>(capacity_bytes) : 0.0;
    if (carriers == 1) base = payload;
    std::printf("%8d %12.1f %12.3f %12d %12d %12.2f\n", carriers, payload / 1024.0,
                util, gps_users, gps_ok, payload / base);
  }
  std::printf("\n(expected: near-linear payload scaling while overloaded; all 12\n"
              " buses only get slots and QoS once >= 2 carriers exist)\n");
  return 0;
}
