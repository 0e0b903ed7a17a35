#include "metrics/experiment.h"

#include "common/stats.h"

namespace osumac::metrics {

FigureMetrics ComputeFigureMetrics(const mac::Cell& cell,
                                   const std::vector<int>& data_nodes) {
  FigureMetrics out;
  const mac::BsCounters& bs = cell.base_station().counters();
  const mac::CellMetrics& cm = cell.metrics();

  out.utilization = cm.Utilization();

  // Subscriber-side aggregation.
  SampleSet packet_delay;
  SampleSet message_delay;
  SampleSet reservation_latency;
  std::int64_t reservations_sent = 0;
  std::int64_t data_sent = 0;
  std::int64_t messages_enqueued = 0;
  std::int64_t messages_dropped = 0;
  std::vector<double> shares;
  for (int node : data_nodes) {
    const mac::SubscriberStats& s = cell.subscriber(node).stats();
    for (double d : s.packet_delay_cycles.samples()) packet_delay.Add(d);
    for (double d : s.message_delay_cycles.samples()) message_delay.Add(d);
    for (double d : s.reservation_latency_cycles.samples()) reservation_latency.Add(d);
    reservations_sent += s.reservation_packets_sent;
    data_sent += s.packets_sent + s.contention_data_sent;
    messages_enqueued += s.messages_enqueued;
    messages_dropped += s.messages_dropped;
    shares.push_back(static_cast<double>(s.payload_bytes_delivered));
  }
  if (!packet_delay.empty()) {
    out.mean_packet_delay_cycles = packet_delay.Mean();
    out.p95_packet_delay_cycles = packet_delay.Quantile(0.95);
  }
  if (!message_delay.empty()) out.mean_message_delay_cycles = message_delay.Mean();
  if (!reservation_latency.empty()) {
    out.mean_reservation_latency = reservation_latency.Mean();
  }
  out.control_overhead =
      data_sent > 0 ? static_cast<double>(reservations_sent) / static_cast<double>(data_sent)
                    : 0.0;
  out.fairness_index = JainFairnessIndex(shares);
  out.message_drop_rate =
      messages_enqueued > 0
          ? static_cast<double>(messages_dropped) / static_cast<double>(messages_enqueued)
          : 0.0;

  // Base-station-side quantities.
  const std::int64_t contention_uses = bs.collisions + bs.contention_data_received +
                                       bs.reservation_packets_received +
                                       bs.registration_packets_received;
  out.collision_probability =
      contention_uses > 0
          ? static_cast<double>(bs.collisions) / static_cast<double>(contention_uses)
          : 0.0;
  out.second_cf_gain =
      bs.data_packets_received > 0
          ? static_cast<double>(bs.last_slot_data_packets) /
                static_cast<double>(bs.data_packets_received)
          : 0.0;
  out.avg_data_slots_used =
      bs.cycles > 0 ? static_cast<double>(bs.data_slots_used) / static_cast<double>(bs.cycles)
                    : 0.0;

  // GPS temporal QoS.
  SampleSet gps_delay;
  std::int64_t gps_reports = 0;
  std::int64_t gps_buses = 0;
  for (int node = 0; node < cell.subscriber_count(); ++node) {
    const mac::MobileSubscriber& sub = cell.subscriber(node);
    if (!sub.is_gps()) continue;
    ++gps_buses;
    gps_reports += sub.stats().gps_reports_sent;
    for (double d : sub.stats().gps_access_delay_seconds.samples()) gps_delay.Add(d);
  }
  if (!gps_delay.empty()) out.gps_access_delay_max_s = gps_delay.Max();
  if (gps_buses > 0 && bs.cycles > 0) {
    out.gps_reports_per_bus_per_cycle = static_cast<double>(gps_reports) /
                                        static_cast<double>(gps_buses) /
                                        static_cast<double>(bs.cycles);
  }
  return out;
}

}  // namespace osumac::metrics
