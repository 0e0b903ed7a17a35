#include "exp/emit.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "common/check.h"
#include "obs/provenance.h"
#include "obs/run_journal.h"

namespace osumac::exp {

namespace {

/// %.17g: the shortest format that round-trips every IEEE double.
std::string FullPrecision(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// The (label, value) pairs of every double-valued figure metric, shared
/// by the JSON emitter and the signature so they can never diverge.
std::vector<std::pair<const char*, double>> FigureFields(
    const metrics::FigureMetrics& m) {
  return {
      {"utilization", m.utilization},
      {"mean_packet_delay_cycles", m.mean_packet_delay_cycles},
      {"p95_packet_delay_cycles", m.p95_packet_delay_cycles},
      {"mean_message_delay_cycles", m.mean_message_delay_cycles},
      {"collision_probability", m.collision_probability},
      {"mean_reservation_latency", m.mean_reservation_latency},
      {"control_overhead", m.control_overhead},
      {"fairness_index", m.fairness_index},
      {"second_cf_gain", m.second_cf_gain},
      {"avg_data_slots_used", m.avg_data_slots_used},
      {"message_drop_rate", m.message_drop_rate},
      {"gps_access_delay_max_s", m.gps_access_delay_max_s},
      {"gps_reports_per_bus_per_cycle", m.gps_reports_per_bus_per_cycle},
  };
}

/// The BsCounters fields the sweep record leaves out: the message-routing
/// counters.  The record never carried them, so adding them would change
/// every committed BENCH_sweeps.json.
constexpr std::string_view kRoutingCounters[] = {
    "messages_forwarded_local", "messages_forwarded_backbone",
    "messages_buffered_for_paging", "forward_buffer_drops"};

std::vector<std::pair<const char*, std::int64_t>> CounterFields(
    const mac::BsCounters& bs) {
  std::vector<std::pair<const char*, std::int64_t>> fields;
  for (const auto& [name, member] : mac::kBsCounterFields) {
    if (std::ranges::find(kRoutingCounters, name) == std::end(kRoutingCounters)) {
      fields.emplace_back(name, bs.*member);
    }
  }
  return fields;
}

std::vector<std::pair<const char*, double>> RunScalars(const RunResult& r) {
  return {
      {"offered_load", r.offered_load},
      {"measured_cycles", static_cast<double>(r.measured_cycles)},
      {"capacity_bytes", static_cast<double>(r.capacity_bytes)},
      {"offered_bytes", static_cast<double>(r.offered_bytes)},
      {"unique_payload_bytes", static_cast<double>(r.unique_payload_bytes)},
      {"uplink_messages_offered", static_cast<double>(r.uplink_messages_offered)},
      {"forward_packets_lost", static_cast<double>(r.forward_packets_lost)},
      {"downlink_messages_generated",
       static_cast<double>(r.downlink_messages_generated)},
      {"downlink_messages_completed",
       static_cast<double>(r.downlink_messages_completed)},
      {"downlink_mean_delay_cycles", r.downlink_mean_delay_cycles},
      {"churn_registered", static_cast<double>(r.churn_registered)},
  };
}

void EmitSpecJson(std::ostream& out, const ScenarioSpec& spec) {
  out << "{\"rho\": " << FullPrecision(spec.workload.rho)
      << ", \"data_users\": " << spec.data_users
      << ", \"gps_users\": " << spec.gps_users
      << ", \"warmup_cycles\": " << spec.warmup_cycles
      << ", \"measure_cycles\": " << spec.measure_cycles
      << ", \"sizes\": \""
      << (spec.workload.sizes.kind == traffic::SizeDistribution::Kind::kFixed
              ? "fixed"
              : "uniform")
      << "\", \"second_cf\": " << (spec.mac.use_second_control_field ? 1 : 0)
      << ", \"dynamic_gps\": " << (spec.mac.dynamic_gps_slots ? 1 : 0)
      << ", \"dynamic_contention\": " << (spec.mac.dynamic_contention_slots ? 1 : 0)
      << ", \"arq\": " << (spec.mac.downlink_arq ? 1 : 0);
  // Conditional like the network rollup block: OSU-only sweeps emit exactly
  // what they always did, byte for byte.
  if (spec.mac_policy != "osu") {
    out << ", \"mac\": \"" << JsonEscape(spec.mac_policy) << '"';
  }
  out << "}";
}

}  // namespace

void WriteSweepCsv(std::ostream& out, const std::vector<ScenarioSpec>& specs,
                   const std::vector<RunResult>& results) {
  OSUMAC_CHECK_EQ(specs.size(), results.size());
  out << "name,seed,rho,data_users,gps_users,cycles,offered,utilization,"
         "packet_delay,p95_delay,message_delay,collision_prob,resv_latency,"
         "control_overhead,fairness,cf2_gain,slots_used,drop_rate,gps_max_s\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioSpec& s = specs[i];
    const RunResult& r = results[i];
    out << r.name << ',' << r.seed << ',' << s.workload.rho << ','
        << s.data_users << ',' << s.gps_users << ',' << r.measured_cycles << ','
        << r.offered_load << ',' << r.figure.utilization << ','
        << r.figure.mean_packet_delay_cycles << ','
        << r.figure.p95_packet_delay_cycles << ','
        << r.figure.mean_message_delay_cycles << ','
        << r.figure.collision_probability << ','
        << r.figure.mean_reservation_latency << ',' << r.figure.control_overhead
        << ',' << r.figure.fairness_index << ',' << r.figure.second_cf_gain << ','
        << r.figure.avg_data_slots_used << ',' << r.figure.message_drop_rate
        << ',' << r.figure.gps_access_delay_max_s << '\n';
  }
}

void WriteSweepJson(std::ostream& out, const std::string& tool, int jobs,
                    double wall_seconds, const std::vector<ScenarioSpec>& specs,
                    const std::vector<RunResult>& results) {
  OSUMAC_CHECK_EQ(specs.size(), results.size());
  out << "{\n  \"provenance\": {\"tool\": \"" << JsonEscape(tool)
      << "\", \"version\": \"" << JsonEscape(obs::BuildVersion())
      << "\", \"build\": \"" << JsonEscape(obs::BuildType())
      << "\", \"jobs\": " << jobs << ", \"wall_seconds\": "
      << FullPrecision(wall_seconds) << ", \"points\": " << results.size()
      << "},\n  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"name\": \"" << JsonEscape(r.name) << "\", \"seed\": " << r.seed
        << ",\n     \"spec\": ";
    EmitSpecJson(out, specs[i]);
    out << ",\n     \"metrics\": {";
    bool first = true;
    for (const auto& [label, value] : FigureFields(r.figure)) {
      out << (first ? "" : ", ") << '"' << label << "\": " << FullPrecision(value);
      first = false;
    }
    for (const auto& [label, value] : RunScalars(r)) {
      out << ", \"" << label << "\": " << FullPrecision(value);
    }
    out << "},\n     \"counters\": {";
    first = true;
    for (const auto& [label, value] : CounterFields(r.bs)) {
      out << (first ? "" : ", ") << '"' << label << "\": " << value;
      first = false;
    }
    out << "},\n     \"slo\": {";
    first = true;
    for (const obs::SloClassSummary& s : r.slo) {
      out << (first ? "" : ", ") << '"' << JsonEscape(s.name)
          << "\": {\"budget_s\": " << FullPrecision(s.budget_seconds)
          << ", \"count\": " << s.count << ", \"misses\": " << s.misses
          << ", \"near_misses\": " << s.near_misses
          << ", \"p50_s\": " << FullPrecision(s.p50)
          << ", \"p90_s\": " << FullPrecision(s.p90)
          << ", \"p99_s\": " << FullPrecision(s.p99)
          << ", \"max_s\": " << FullPrecision(s.max_seconds) << '}';
      first = false;
    }
    out << "}";
    // Network rollup block only for multi-cell runs: single-cell sweeps
    // (cells == 0) emit exactly what they always did, byte for byte.
    if (r.network.cells > 0) {
      out << ",\n     \"network\": {\"cells\": " << r.network.cells
          << ", \"subscribers\": " << r.network.subscribers
          << ", \"backbone_messages\": " << r.network.backbone_messages
          << ", \"backbone_unrouted\": " << r.network.backbone_unrouted
          << ", \"handoffs\": " << r.network.handoffs << '}';
    }
    // Journal block only for journaled runs (spec.journal_every > 0):
    // journal-off sweeps — the default everywhere — stay byte-identical.
    if (r.journal != nullptr) {
      out << ",\n     \"journal\": {\"every\": " << r.journal->every()
          << ", \"cells\": " << r.journal->cells().size()
          << ", \"signature\": \"" << obs::JournalHex(r.journal->Signature())
          << "\"}";
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

std::string ResultSignature(const RunResult& result) {
  std::string sig = result.name + "|" + std::to_string(result.seed);
  for (const auto& [label, value] : FigureFields(result.figure)) {
    sig += "|";
    sig += label;
    sig += "=";
    sig += FullPrecision(value);
  }
  for (const auto& [label, value] : CounterFields(result.bs)) {
    sig += "|";
    sig += label;
    sig += "=";
    sig += std::to_string(value);
  }
  for (const auto& [label, value] : RunScalars(result)) {
    sig += "|";
    sig += label;
    sig += "=";
    sig += FullPrecision(value);
  }
  for (const double latency : result.churn_registration_latency) {
    sig += "|churn=" + FullPrecision(latency);
  }
  for (const obs::SloClassSummary& s : result.slo) {
    sig += "|slo." + s.name + "=" + std::to_string(s.count) + "/" +
           std::to_string(s.misses) + "/" + std::to_string(s.near_misses) +
           "/" + FullPrecision(s.p99) + "/" + FullPrecision(s.max_seconds);
  }
  if (result.network.cells > 0) {
    sig += "|net=" + std::to_string(result.network.cells) + "/" +
           std::to_string(result.network.subscribers) + "/" +
           std::to_string(result.network.backbone_messages) + "/" +
           std::to_string(result.network.backbone_unrouted) + "/" +
           std::to_string(result.network.handoffs);
  }
  if (result.journal != nullptr) {
    sig += "|journal=" + obs::JournalHex(result.journal->Signature());
  }
  return sig;
}

}  // namespace osumac::exp
