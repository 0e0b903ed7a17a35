// Real-time bus location tracking — the paper's motivating application.
//
//   $ ./bus_tracking
//
// Eight buses drive through the cell at up to 90 km/h, each carrying a GPS
// unit that reports its position through its reserved GPS slot.  A fleet
// dashboard at the base station tracks every bus with the position reports
// it decodes.  The paper's dimensioning argument (Section 2.1): at <= 25 m/s
// and one report per 4 s, the dashboard's position error stays <= 100 m.
//
// The example also exercises the dynamic slot adjustment rules R1-R3:
// buses go off-shift mid-run (sign-off), slots consolidate, the cycle
// switches to format 2 (freeing a data slot), and returning buses re-admit.
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "osumac/osumac.h"

using namespace osumac;

namespace {

/// A bus driving back and forth on a 20 km route at variable speed.
struct Bus {
  int node = -1;
  double position_m = 0.0;   ///< along-route position
  double speed_mps = 15.0;   ///< <= 25 m/s (90 km/h)
  int direction = 1;
};

/// The dashboard's last decoded report per bus.
struct TrackEntry {
  double reported_position_m = 0.0;
  double report_time_s = 0.0;
};

}  // namespace

int main() {
  mac::CellConfig config;
  config.seed = 88;
  // A bursty uplink: occasional fades kill whole reports (never
  // retransmitted, per the paper), so the dashboard must tolerate gaps.
  config.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  config.reverse.ge.p_good_to_bad = 0.002;
  config.reverse.ge.p_bad_to_good = 0.05;
  config.reverse.ge.error_prob_bad = 0.4;
  mac::Cell cell(config);

  Rng rng(7);
  std::vector<Bus> buses(8);
  for (auto& bus : buses) {
    bus.node = cell.AddSubscriber(/*wants_gps=*/true);
    bus.position_m = rng.UniformReal(0, 20000);
    bus.speed_mps = rng.UniformReal(8, 25);
    cell.PowerOn(bus.node);
  }
  cell.RunCycles(10);  // registration

  std::printf("fleet registered: %d buses, reverse cycle format %d\n",
              cell.base_station().gps_manager().active_count(),
              cell.base_station().current_format() == mac::ReverseFormat::kFormat1 ? 1 : 2);

  std::map<int, TrackEntry> dashboard;
  double worst_error_m = 0.0;
  const double cycle_s = ToSeconds(mac::kCycleTicks);

  auto drive_and_track = [&](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      // Move the fleet for one notification cycle.
      for (auto& bus : buses) {
        if (cell.subscriber(bus.node).state() != mac::MobileSubscriber::State::kActive) {
          continue;
        }
        bus.position_m += bus.direction * bus.speed_mps * cycle_s;
        if (bus.position_m > 20000 || bus.position_m < 0) bus.direction *= -1;
      }
      cell.RunCycles(1);
      const double now_s = ToSeconds(cell.simulator().now());
      // Tracking error just before the dashboard refresh: how far each bus
      // has drifted since its last decoded report (this is the quantity the
      // paper's 100 m budget bounds).
      for (const auto& bus : buses) {
        const auto it = dashboard.find(bus.node);
        if (it == dashboard.end()) continue;
        if (cell.subscriber(bus.node).state() != mac::MobileSubscriber::State::kActive) {
          continue;
        }
        const double err = std::abs(bus.position_m - it->second.reported_position_m);
        worst_error_m = std::max(worst_error_m, err);
      }
      // The dashboard updates only the buses whose report was decoded this
      // cycle (the payload in the simulation is synthetic, so we mirror the
      // true position — what the 24-bit lat/lon fields would carry).
      for (mac::UserId uid : cell.base_station().gps_receptions()) {
        for (const auto& bus : buses) {
          if (cell.subscriber(bus.node).user_id() == uid &&
              cell.subscriber(bus.node).is_gps()) {
            dashboard[bus.node] = {bus.position_m, now_s};
          }
        }
      }
    }
  };

  drive_and_track(60);
  std::printf("after 60 cycles: worst tracking error %.0f m (budget 100 m at 4 s/report)\n",
              worst_error_m);

  // Three buses end their shift; rules R1-R3 consolidate GPS slots and the
  // reverse cycle switches to format 2, freeing a data slot for data users.
  std::printf("\nbuses 1, 2, 3, 5, 6 go off shift...\n");
  for (int idx : {1, 2, 3, 5, 6}) {
    cell.SignOff(buses[static_cast<std::size_t>(idx)].node);
    dashboard.erase(buses[static_cast<std::size_t>(idx)].node);
  }
  drive_and_track(3);
  std::printf("  active GPS users: %d, format %d, dense slot prefix: %s\n",
              cell.base_station().gps_manager().active_count(),
              cell.base_station().current_format() == mac::ReverseFormat::kFormat1 ? 1 : 2,
              cell.base_station().gps_manager().IsDensePrefix() ? "yes" : "no");

  drive_and_track(40);

  std::printf("\nbus 1 returns to service...\n");
  cell.PowerOn(buses[1].node);
  drive_and_track(10);
  std::printf("  active GPS users: %d, format %d\n",
              cell.base_station().gps_manager().active_count(),
              cell.base_station().current_format() == mac::ReverseFormat::kFormat1 ? 1 : 2);

  const auto& bs = cell.base_station().counters();
  std::printf("\nrun summary (%.0f s simulated):\n", ToSeconds(cell.simulator().now()));
  std::printf("  GPS reports decoded: %lld, lost to fades: %lld (never retransmitted)\n",
              static_cast<long long>(bs.gps_packets_received),
              static_cast<long long>(bs.gps_packets_failed));
  double worst_access = 0;
  for (const auto& bus : buses) {
    const auto& s = cell.subscriber(bus.node).stats().gps_access_delay_seconds;
    if (!s.empty()) worst_access = std::max(worst_access, s.Max());
  }
  std::printf("  worst GPS access delay: %.2f s (requirement: < 4 s)\n", worst_access);
  std::printf("  worst tracking error:   %.0f m  (budget: 100 m + one lost report)\n",
              worst_error_m);
  return 0;
}
