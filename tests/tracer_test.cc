// Tests for the metrics bridge: the counter-ledger tables, the registry
// names they generate and the per-cycle time-series tracer.
#include <array>
#include <bit>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/cell_metrics.h"
#include "metrics/tracer.h"
#include "traffic/workload.h"

namespace osumac::metrics {
namespace {

/// Writes i+1 through row i's member pointer into a zeroed ledger, then
/// reads the ledger back as int64 words: word i must hold i+1.  That holds
/// only if the table is complete, free of duplicates and in declaration
/// order, the order whose row positions key the journal's ledger fold.
template <typename Ledger, std::size_t N>
void ExpectDeclarationOrder(const mac::CounterField<Ledger> (&table)[N]) {
  Ledger ledger{};
  for (std::size_t i = 0; i < N; ++i) {
    ledger.*table[i].member = static_cast<std::int64_t>(i + 1);
  }
  const auto words = std::bit_cast<std::array<std::int64_t, N>>(ledger);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(words[i], static_cast<std::int64_t>(i + 1)) << "row " << table[i].name;
  }
}

TEST(CounterTableTest, BsCounterFieldsFollowDeclarationOrder) {
  ExpectDeclarationOrder(mac::kBsCounterFields);
  // Cell::JournalCycle folds every subscriber's ledger right after this one.
  ExpectDeclarationOrder(mac::kSubscriberCounterFields);
}

TEST(CounterTableTest, PolicyCounterFieldsFollowDeclarationOrder) {
  ExpectDeclarationOrder(mac::kPolicyCounterFields);
}

/// +1 in any single row changes the keyed ledger fold, and the rows give
/// pairwise-distinct folds.
template <typename Ledger, std::size_t N>
void ExpectEveryRowMovesTheFold(const mac::CounterField<Ledger> (&table)[N]) {
  Ledger base{};
  for (std::size_t i = 0; i < N; ++i) {
    base.*table[i].member = static_cast<std::int64_t>(1000 + 37 * i);
  }
  const std::uint64_t base_fold = mac::KeyedLedgerSum(table, base);
  std::set<std::uint64_t> folds;
  for (std::size_t i = 0; i < N; ++i) {
    Ledger bumped = base;
    ++(bumped.*table[i].member);
    const std::uint64_t fold = mac::KeyedLedgerSum(table, bumped);
    EXPECT_NE(fold, base_fold) << "row " << table[i].name;
    folds.insert(fold);
  }
  EXPECT_EQ(folds.size(), N) << "two rows share a key";
}

TEST(CounterTableTest, EveryLedgerRowMovesTheKeyedFold) {
  ExpectEveryRowMovesTheFold(mac::kBsCounterFields);
  ExpectEveryRowMovesTheFold(mac::kSubscriberCounterFields);
  ExpectEveryRowMovesTheFold(mac::kPolicyCounterFields);
  // Cell::JournalCycle sums the base-station fold and subscriber k's fold
  // weighed by DigestKey(kBsRows + k): every row of the base station and of
  // the first 64 subscribers keeps an odd key of its own.
  constexpr std::size_t kBsRows = std::size(mac::kBsCounterFields);
  constexpr std::size_t kSubRows = std::size(mac::kSubscriberCounterFields);
  std::set<std::uint64_t> keys(kDigestKeys<kBsRows>.begin(), kDigestKeys<kBsRows>.end());
  for (std::uint64_t k = 0; k < 64; ++k) {
    for (const std::uint64_t key : kDigestKeys<kSubRows>) {
      keys.insert(DigestKey(kBsRows + k) * key);
    }
  }
  EXPECT_EQ(keys.size(), kBsRows + 64 * kSubRows);
  for (const std::uint64_t key : keys) EXPECT_EQ(key & 1, 1u);
}

/// Sorted registry names under `prefix` (docs/OBSERVABILITY.md: stable API).
std::vector<std::string> NamesUnder(const obs::MetricsRegistry& registry,
                                    const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& [name, value] : registry.Collect()) {
    if (name.starts_with(prefix)) names.push_back(name);
  }
  return names;
}

TEST(CellMetricsTest, LedgerGaugeNamesGolden) {
  // Recorded from the hand-written gauge lists the tables replaced.
  obs::MetricsRegistry osu_registry;
  const mac::Cell cell(mac::CellConfig{});
  RegisterCellMetrics(osu_registry, cell);
  EXPECT_EQ(NamesUnder(osu_registry, "bs."),
            (std::vector<std::string>{
                "bs.active_users", "bs.collisions", "bs.contention_data_received",
                "bs.contention_slot_cycles", "bs.contention_slots", "bs.cycles",
                "bs.data_packets_received", "bs.data_slots_offered", "bs.data_slots_used",
                "bs.decode_failures", "bs.deregistrations_received", "bs.downlink_dropped",
                "bs.duplicate_packets", "bs.format", "bs.forward_acks_received",
                "bs.forward_arq_drops", "bs.forward_buffer_drops",
                "bs.forward_packets_sent", "bs.forward_retransmissions",
                "bs.gps_packets_failed", "bs.gps_packets_received", "bs.gps_timeouts",
                "bs.gps_users", "bs.idle_assigned_slots", "bs.idle_contention_slots",
                "bs.last_slot_data_packets", "bs.messages_buffered_for_paging",
                "bs.messages_forwarded_backbone", "bs.messages_forwarded_local",
                "bs.payload_bytes_received", "bs.registration_packets_received",
                "bs.registrations_approved", "bs.registrations_rejected",
                "bs.reservation_packets_received"}));

  obs::MetricsRegistry policy_registry;
  const mac::PolicyCell policy(mac::CellConfig{}, mac::MakeMacPolicy("rqma"), 1);
  RegisterPolicyCellMetrics(policy_registry, policy);
  EXPECT_EQ(NamesUnder(policy_registry, "mac.rqma.bs."),
            (std::vector<std::string>{
                "mac.rqma.bs.collisions", "mac.rqma.bs.contention_slots",
                "mac.rqma.bs.data_packets_received", "mac.rqma.bs.deadline_drops",
                "mac.rqma.bs.decode_failures", "mac.rqma.bs.gps_packets_received",
                "mac.rqma.bs.granted_slots", "mac.rqma.bs.idle_slots",
                "mac.rqma.bs.messages_completed", "mac.rqma.bs.payload_bytes_received",
                "mac.rqma.bs.request_packets_received"}));
}

TEST(CycleTracerTest, CapturesPerCycleDeltas) {
  mac::CellConfig config;
  config.seed = 91;
  mac::Cell cell(config);
  std::vector<int> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  cell.PowerOn(cell.AddSubscriber(true));

  CycleTracer tracer;
  for (int c = 0; c < 30; ++c) {
    cell.RunCycles(1);
    tracer.Sample(cell);
    if (c == 10) cell.SendUplinkMessage(nodes[0], 200);
  }
  ASSERT_EQ(tracer.samples().size(), 30u);

  // Registration activity appears in the first samples, then stops.
  int early_registrations = 0;
  int late_registrations = 0;
  for (const CycleSample& s : tracer.samples()) {
    if (s.cycle < 8) {
      early_registrations += s.registrations;
    } else {
      late_registrations += s.registrations;
    }
  }
  EXPECT_GT(early_registrations, 0);
  EXPECT_EQ(late_registrations, 0);

  // The message sent at cycle 10 shows up as data packets shortly after.
  int packets_after = 0;
  for (const CycleSample& s : tracer.samples()) {
    if (s.cycle >= 10) packets_after += s.data_packets;
  }
  EXPECT_EQ(packets_after, 5);  // 200 bytes = 5 packets

  // Gauges reflect the final population: 5 data users + 1 bus.
  const CycleSample& last = tracer.samples().back();
  EXPECT_EQ(last.active_users, 6);
  EXPECT_EQ(last.gps_users, 1);
  EXPECT_EQ(last.format, 2);
  EXPECT_EQ(last.gps_reports, 1) << "one bus reports once per cycle";
}

TEST(CycleTracerTest, CsvOutputIsWellFormed) {
  mac::CellConfig config;
  config.seed = 92;
  mac::Cell cell(config);
  cell.PowerOn(cell.AddSubscriber(false));
  CycleTracer tracer;
  for (int c = 0; c < 5; ++c) {
    cell.RunCycles(1);
    tracer.Sample(cell);
  }
  std::ostringstream out;
  tracer.WriteCsv(out);
  const std::string csv = out.str();
  // Header + 5 rows, all with the same number of commas.
  const std::string header = CycleTracer::CsvHeader();
  const auto header_commas = std::count(header.begin(), header.end(), ',');
  std::istringstream lines(csv);
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), header_commas) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 6);
}

}  // namespace
}  // namespace osumac::metrics
