// Regenerates Figure 12:
//   (a) bandwidth gained by the second set of control fields — the share
//       of data packets carried in the last reverse data slot (which
//       overlaps CF1 of the next cycle and is only usable because its user
//       can listen to CF2 instead).  Paper: 5-14 %, growing with load.
//   (b) average number of reverse data slots used per cycle with 1 vs 4
//       GPS users — dynamic slot re-adjustment fuses the unused GPS slots
//       of format 2 into a 9th data slot.  Paper: up to ~15 % more
//       bandwidth at high load.
// Also runs the matching ablations (second CF disabled / dynamic slots
// disabled) to isolate each mechanism's contribution.
#include <cstdio>
#include <vector>

#include "osumac/osumac.h"

#include "bench_provenance.h"

using namespace osumac;

int main(int argc, char** argv) {
  osumac::bench::PrintProvenance("bench_fig12_ablations");
  const int jobs = bench::JobsFlag(argc, argv);

  // Part (a): per rho, second control field on then off.
  std::vector<exp::ScenarioSpec> cf_specs;
  for (const double rho : exp::LoadSweep()) {
    exp::ScenarioSpec with_cf2 = exp::LoadPoint(rho);
    cf_specs.push_back(with_cf2);
    exp::ScenarioSpec without_cf2 = with_cf2;
    without_cf2.name += "_nocf2";
    without_cf2.mac.use_second_control_field = false;
    cf_specs.push_back(without_cf2);
  }
  // Part (b): per rho, the {1, 4} GPS x {dynamic, static} grid.  Workload
  // interarrivals derive from the format's slot count regardless of the
  // dynamic flag (ScenarioSpec::DataSlotsForLoad), holding the per-user
  // offered byte rate constant across the arms; with dynamic disabled,
  // format 2's fused 9th slot is lost — exactly the bandwidth the figure
  // shows.
  std::vector<exp::ScenarioSpec> slot_specs;
  for (const double rho : exp::LoadSweep()) {
    for (const int gps : {1, 4}) {
      for (const bool dynamic : {true, false}) {
        exp::ScenarioSpec point = exp::LoadPoint(rho);
        point.name += "_gps" + std::to_string(gps) + (dynamic ? "_dyn" : "_static");
        point.gps_users = gps;
        point.mac.dynamic_gps_slots = dynamic;
        slot_specs.push_back(point);
      }
    }
  }
  std::vector<exp::ScenarioSpec> specs = cf_specs;
  specs.insert(specs.end(), slot_specs.begin(), slot_specs.end());
  const std::vector<exp::RunResult> results = exp::SweepRunner(jobs).Run(specs);

  std::printf("Figure 12(a): bandwidth gain from the second set of control fields\n");
  metrics::TablePrinter ta({"rho", "cf2_gain", "last_slot_pkts", "all_pkts",
                            "util_with", "util_without"},
                           14);
  ta.PrintHeader();
  std::size_t next = 0;
  for (const double rho : exp::LoadSweep()) {
    const exp::RunResult& on = results[next++];
    const exp::RunResult& off = results[next++];
    ta.PrintRow({rho, on.figure.second_cf_gain,
                 static_cast<double>(on.bs.last_slot_data_packets),
                 static_cast<double>(on.bs.data_packets_received), on.figure.utilization,
                 off.figure.utilization});
  }
  std::printf("(paper: 5%% to 14%% of packets ride in the last slot)\n\n");

  std::printf("Figure 12(b): average data slots used per cycle, 1 vs 4 GPS users\n");
  metrics::TablePrinter tb({"rho", "gps1_dynamic", "gps1_static", "gps4_dynamic",
                            "gps4_static"},
                           14);
  tb.PrintHeader();
  for (const double rho : exp::LoadSweep()) {
    std::vector<double> row = {rho};
    for (int arm = 0; arm < 4; ++arm) {
      row.push_back(results[next++].figure.avg_data_slots_used);
    }
    tb.PrintRow(row);
  }
  std::printf("(paper: with <= 3 GPS users the fused slot buys up to ~15%% more\n"
              " bandwidth at high load; with 4+ GPS users the arms coincide)\n");
  return 0;
}
