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
  for (const auto& [name, member] : mac::kBsCounterFields) {
    registry.RegisterGauge(prefix + "bs." + name, [c, member] {
      return static_cast<double>(c->base_station().counters().*member);
    });
  }

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
  for (const auto& [name, member] : mac::kPolicyCounterFields) {
    registry.RegisterGauge(prefix + "bs." + name, [c, member] {
      return static_cast<double>(c->counters().*member);
    });
  }

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
