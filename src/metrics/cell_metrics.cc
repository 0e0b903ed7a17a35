#include "metrics/cell_metrics.h"

namespace osumac::metrics {

namespace {

/// The gauges every tenant's driver shares: the substrate aggregates, the
/// SLO monitor and the simulator clock.
void RegisterDriverMetrics(obs::MetricsRegistry& registry, const mac::CellDriver& cell,
                           const std::string& prefix) {
  const mac::CellDriver* c = &cell;
  registry.RegisterGauge(prefix + "cell.cycles",
                         [c] { return static_cast<double>(c->metrics().cycles); });
  registry.RegisterGauge(prefix + "cell.capacity_bytes", [c] {
    return static_cast<double>(c->metrics().capacity_bytes);
  });
  registry.RegisterGauge(prefix + "cell.unique_payload_bytes", [c] {
    return static_cast<double>(c->metrics().unique_payload_bytes);
  });
  registry.RegisterGauge(prefix + "cell.offered_bytes", [c] {
    return static_cast<double>(c->metrics().offered_bytes);
  });
  registry.RegisterGauge(prefix + "cell.uplink_messages_offered", [c] {
    return static_cast<double>(c->metrics().uplink_messages_offered);
  });
  registry.RegisterGauge(prefix + "cell.utilization",
                         [c] { return c->metrics().Utilization(); });

  // QoS / SLO monitor (streaming percentiles against the paper's budgets).
  obs::RegisterSloMetrics(registry, cell.slo(), prefix);

  registry.RegisterGauge(prefix + "sim.now_ticks", [c] {
    return static_cast<double>(c->simulator().now());
  });
  registry.RegisterGauge(prefix + "sim.events_executed", [c] {
    return static_cast<double>(c->simulator().events_executed());
  });
}

}  // namespace

void RegisterCellMetrics(obs::MetricsRegistry& registry, const mac::Cell& cell,
                         const std::string& prefix) {
  const mac::Cell* c = &cell;

  // Base-station counters (one gauge per BsCounters field).
  const auto bs_counter = [&registry, &prefix, c](const std::string& name,
                                                  std::int64_t mac::BsCounters::* field) {
    registry.RegisterGauge(prefix + "bs." + name, [c, field] {
      return static_cast<double>(c->base_station().counters().*field);
    });
  };
  bs_counter("cycles", &mac::BsCounters::cycles);
  bs_counter("data_packets_received", &mac::BsCounters::data_packets_received);
  bs_counter("contention_data_received", &mac::BsCounters::contention_data_received);
  bs_counter("reservation_packets_received",
             &mac::BsCounters::reservation_packets_received);
  bs_counter("registration_packets_received",
             &mac::BsCounters::registration_packets_received);
  bs_counter("gps_packets_received", &mac::BsCounters::gps_packets_received);
  bs_counter("gps_packets_failed", &mac::BsCounters::gps_packets_failed);
  bs_counter("collisions", &mac::BsCounters::collisions);
  bs_counter("contention_slot_cycles", &mac::BsCounters::contention_slot_cycles);
  bs_counter("idle_contention_slots", &mac::BsCounters::idle_contention_slots);
  bs_counter("idle_assigned_slots", &mac::BsCounters::idle_assigned_slots);
  bs_counter("decode_failures", &mac::BsCounters::decode_failures);
  bs_counter("duplicate_packets", &mac::BsCounters::duplicate_packets);
  bs_counter("payload_bytes_received", &mac::BsCounters::payload_bytes_received);
  bs_counter("last_slot_data_packets", &mac::BsCounters::last_slot_data_packets);
  bs_counter("registrations_approved", &mac::BsCounters::registrations_approved);
  bs_counter("registrations_rejected", &mac::BsCounters::registrations_rejected);
  bs_counter("forward_packets_sent", &mac::BsCounters::forward_packets_sent);
  bs_counter("data_slots_offered", &mac::BsCounters::data_slots_offered);
  bs_counter("data_slots_used", &mac::BsCounters::data_slots_used);
  bs_counter("downlink_dropped", &mac::BsCounters::downlink_dropped);
  bs_counter("deregistrations_received", &mac::BsCounters::deregistrations_received);
  bs_counter("forward_acks_received", &mac::BsCounters::forward_acks_received);
  bs_counter("forward_retransmissions", &mac::BsCounters::forward_retransmissions);
  bs_counter("forward_arq_drops", &mac::BsCounters::forward_arq_drops);
  bs_counter("messages_forwarded_local", &mac::BsCounters::messages_forwarded_local);
  bs_counter("messages_forwarded_backbone",
             &mac::BsCounters::messages_forwarded_backbone);
  bs_counter("messages_buffered_for_paging",
             &mac::BsCounters::messages_buffered_for_paging);
  bs_counter("forward_buffer_drops", &mac::BsCounters::forward_buffer_drops);
  bs_counter("gps_timeouts", &mac::BsCounters::gps_timeouts);

  // Base-station scheduling state.
  registry.RegisterGauge(prefix + "bs.contention_slots", [c] {
    return static_cast<double>(c->base_station().contention_slots());
  });
  registry.RegisterGauge(prefix + "bs.active_users", [c] {
    return static_cast<double>(c->base_station().registered_users().size());
  });
  registry.RegisterGauge(prefix + "bs.gps_users", [c] {
    return static_cast<double>(c->base_station().gps_manager().active_count());
  });
  registry.RegisterGauge(prefix + "bs.format", [c] {
    return c->base_station().current_format() == mac::ReverseFormat::kFormat1 ? 1.0
                                                                              : 2.0;
  });

  RegisterDriverMetrics(registry, cell, prefix);
  registry.RegisterGauge(prefix + "cell.forward_packets_lost", [c] {
    return static_cast<double>(c->metrics().forward_packets_lost);
  });
  registry.RegisterGauge(prefix + "cell.subscribers", [c] {
    return static_cast<double>(c->subscriber_count());
  });
  registry.RegisterGauge(prefix + "sim.pending_events", [c] {
    return static_cast<double>(c->simulator().pending_events());
  });
}

void RegisterPolicyCellMetrics(obs::MetricsRegistry& registry,
                               const mac::PolicyCell& cell) {
  const mac::PolicyCell* c = &cell;
  const std::string prefix = "mac." + cell.policy().name() + ".";

  // Driver counters (one gauge per PolicyCounters field).
  const auto counter = [&registry, &prefix, c](
                           const std::string& name,
                           std::int64_t mac::PolicyCounters::* field) {
    registry.RegisterGauge(prefix + "bs." + name, [c, field] {
      return static_cast<double>(c->counters().*field);
    });
  };
  counter("data_packets_received", &mac::PolicyCounters::data_packets_received);
  counter("gps_packets_received", &mac::PolicyCounters::gps_packets_received);
  counter("request_packets_received",
          &mac::PolicyCounters::request_packets_received);
  counter("collisions", &mac::PolicyCounters::collisions);
  counter("decode_failures", &mac::PolicyCounters::decode_failures);
  counter("idle_slots", &mac::PolicyCounters::idle_slots);
  counter("granted_slots", &mac::PolicyCounters::granted_slots);
  counter("contention_slots", &mac::PolicyCounters::contention_slots);
  counter("payload_bytes_received", &mac::PolicyCounters::payload_bytes_received);
  counter("deadline_drops", &mac::PolicyCounters::deadline_drops);
  counter("messages_completed", &mac::PolicyCounters::messages_completed);

  RegisterDriverMetrics(registry, cell, prefix);
  registry.RegisterGauge(prefix + "cell.nodes", [c] {
    return static_cast<double>(c->node_count());
  });
}

void RegisterNetworkMetrics(obs::MetricsRegistry& registry,
                            const mac::Network& network) {
  const mac::Network* n = &network;
  for (int i = 0; i < network.cell_count(); ++i) {
    RegisterCellMetrics(registry, network.cell(i),
                        "cell." + std::to_string(i) + ".");
  }
  registry.RegisterGauge("net.cells",
                         [n] { return static_cast<double>(n->cell_count()); });
  registry.RegisterGauge("net.subscribers", [n] {
    return static_cast<double>(n->subscriber_count());
  });
  registry.RegisterGauge("net.backbone_messages", [n] {
    return static_cast<double>(n->counters().backbone_messages);
  });
  registry.RegisterGauge("net.backbone_unrouted", [n] {
    return static_cast<double>(n->counters().backbone_unrouted);
  });
  registry.RegisterGauge("net.handoffs", [n] {
    return static_cast<double>(n->counters().handoffs);
  });
}

}  // namespace osumac::metrics
