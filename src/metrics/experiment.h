// Computation of the paper's evaluation metrics (Section 5) from a finished
// (or warmed-up) Cell run.
#pragma once

#include <vector>

#include "mac/cell.h"

namespace osumac::metrics {

/// All per-run quantities the paper's figures plot.
struct FigureMetrics {
  double utilization = 0.0;                 ///< Fig 8(a)
  double mean_packet_delay_cycles = 0.0;    ///< Fig 8(b)
  double p95_packet_delay_cycles = 0.0;
  double mean_message_delay_cycles = 0.0;
  double collision_probability = 0.0;       ///< Fig 9(a)
  double mean_reservation_latency = 0.0;    ///< Fig 9(b), in cycles
  double control_overhead = 0.0;            ///< Fig 10: resv pkts / data pkts
  double fairness_index = 1.0;              ///< Fig 11 (Jain)
  double second_cf_gain = 0.0;              ///< Fig 12(a): last-slot share
  double avg_data_slots_used = 0.0;         ///< Fig 12(b), per cycle
  double message_drop_rate = 0.0;           ///< buffer overflow share
  double gps_access_delay_max_s = 0.0;      ///< temporal QoS check (< 4 s)
  double gps_reports_per_bus_per_cycle = 0.0;
};

/// Aggregates subscriber and base-station statistics into figure metrics.
/// `data_nodes` selects the subscribers whose bandwidth shares enter the
/// fairness index (the paper computes fairness across data users).
FigureMetrics ComputeFigureMetrics(const mac::Cell& cell,
                                   const std::vector<int>& data_nodes);

}  // namespace osumac::metrics
