// Tests for packet-lifecycle span tracing, the SLO monitor, and the flight
// recorder: every traced packet's life must be reconstructable and agree
// with the airtime timeline, SLO percentiles must match an offline
// recomputation from the same trace, and deadline accounting must survive
// GPS slot-manager churn and the CF1/last-reverse-slot overlap.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "osumac/osumac.h"

namespace osumac {
namespace {

struct TracedCell {
  explicit TracedCell(int data_users, int gps_users, std::uint64_t seed = 31,
                      mac::CellConfig base = {})
      : config([&] {
          base.seed = seed;
          return base;
        }()),
        cell(config),
        trace(1 << 18) {
    for (int i = 0; i < data_users; ++i) {
      data_nodes.push_back(cell.AddSubscriber(false));
      cell.PowerOn(data_nodes.back());
    }
    for (int i = 0; i < gps_users; ++i) {
      gps_nodes.push_back(cell.AddSubscriber(true));
      cell.PowerOn(gps_nodes.back());
    }
    cell.RunCycles(12);  // registration settles
    cell.ResetStats();
    cell.AttachTrace(&trace);
  }

  mac::CellConfig config;
  mac::Cell cell;
  std::vector<int> data_nodes;
  std::vector<int> gps_nodes;
  obs::EventTrace trace;
};

/// All kLifecycle slot-TX records must coincide, tick-exact, with a
/// kBurstTx airtime record for the same node — the "spans agree with the
/// airtime timeline" contract (1e-9 s is well below one tick).
void ExpectSlotTxSpansMatchBursts(const obs::EventTrace& trace) {
  std::vector<obs::Event> bursts;
  trace.ForEach([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kBurstTx) bursts.push_back(e);
  });
  int checked = 0;
  trace.ForEach([&](const obs::Event& e) {
    if (e.kind != obs::EventKind::kLifecycle || e.a0 != obs::kStageSlotTx)
      return;
    const auto match =
        std::find_if(bursts.begin(), bursts.end(), [&](const obs::Event& b) {
          return b.node == e.node && b.span.begin == e.span.begin &&
                 b.span.end == e.span.end;
        });
    ASSERT_NE(match, bursts.end())
        << "slot_tx span [" << e.span.begin << ", " << e.span.end
        << ") of node " << e.node << " has no matching burst";
    EXPECT_NEAR(ToSeconds(e.span.begin), ToSeconds(match->span.begin), 1e-9);
    EXPECT_NEAR(ToSeconds(e.span.end), ToSeconds(match->span.end), 1e-9);
    ++checked;
  });
  EXPECT_GT(checked, 0) << "no slot_tx lifecycle records in the trace";
}

TEST(SpanTest, DataLifecyclesCompleteOnPerfectChannel) {
  TracedCell t(4, 2);
  for (int c = 0; c < 10; ++c) {
    for (int n : t.data_nodes) t.cell.SendUplinkMessage(n, 120 + 11 * n);
    t.cell.RunCycles(1);
  }
  t.cell.RunCycles(30);  // drain the queues fully
  ASSERT_EQ(t.trace.dropped(), 0u);

  const std::vector<obs::Lifecycle> lifecycles =
      obs::CollectLifecycles(t.trace);
  ASSERT_FALSE(lifecycles.empty());

  // Start of the second-to-last cycle: lives still moving past this point
  // are legitimately truncated by run end.
  std::vector<Tick> starts;
  t.trace.ForEach([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kCycleStart) starts.push_back(e.span.begin);
  });
  ASSERT_GE(starts.size(), 2u);
  const Tick tail_begin = starts[starts.size() - 2];

  int complete_data = 0;
  for (const obs::Lifecycle& lc : lifecycles) {
    ASSERT_NE(lc.id, 0) << "id 0 means untraced and must never be emitted";
    // Per-id records are in recording order with nondecreasing ticks, the
    // terminal stage (if any) is last, and a birth is first.
    Tick prev = -1;
    for (std::size_t i = 0; i < lc.stages.size(); ++i) {
      EXPECT_GE(lc.stages[i].tick, prev);
      prev = lc.stages[i].tick;
      if (i + 1 < lc.stages.size()) {
        EXPECT_FALSE(obs::LifecycleStageTerminal(lc.stages[i].stage, lc.cls))
            << "terminal stage followed by more records (id " << lc.id << ")";
      }
    }
    if (lc.cls != obs::kClassData) continue;
    // Perfect channel, bounded load: every data fragment born in-window
    // runs to its acked terminal — except lives still moving in the final
    // two cycles, whose ack rides a control field the run never delivers.
    if (lc.HasBirth() && lc.stages.back().tick < tail_begin) {
      EXPECT_TRUE(lc.Complete()) << "data lifecycle " << lc.id << " open";
      EXPECT_EQ(lc.stages.back().stage, obs::kStageAcked);
      EXPECT_TRUE(lc.Has(obs::kStageQueued));
      EXPECT_TRUE(lc.Has(obs::kStageSlotTx));
      EXPECT_TRUE(lc.Has(obs::kStageDelivered));
      ++complete_data;
    }
  }
  EXPECT_GT(complete_data, 0);

  const obs::SpanBreakdown breakdown = obs::BreakDown(lifecycles);
  EXPECT_GT(breakdown.complete, 0);
  ExpectSlotTxSpansMatchBursts(t.trace);
}

TEST(SpanTest, GpsLifecyclesDeliverWithinBudget) {
  TracedCell t(2, 3);
  t.cell.RunCycles(20);
  ASSERT_EQ(t.trace.dropped(), 0u);

  int complete_gps = 0;
  for (const obs::Lifecycle& lc : obs::CollectLifecycles(t.trace)) {
    if (lc.cls != obs::kClassGps || !lc.Complete()) continue;
    EXPECT_EQ(lc.stages.back().stage, obs::kStageDelivered);
    // Access delay recomputed from the span: fix ready (generated a2) to
    // slot TX begin must honor the paper's 4 s budget on a clean channel.
    const auto& birth = lc.stages.front();
    ASSERT_EQ(birth.stage, obs::kStageGenerated);
    std::optional<Tick> tx_begin;
    for (const auto& s : lc.stages) {
      if (s.stage == obs::kStageSlotTx) tx_begin = s.span.begin;
    }
    ASSERT_TRUE(tx_begin.has_value());
    const double access_s = ToSeconds(*tx_begin - birth.detail);
    EXPECT_GE(access_s, 0.0);
    EXPECT_LE(access_s, 4.0) << "GPS access budget blown on perfect channel";
    ++complete_gps;
  }
  EXPECT_GT(complete_gps, 0);
  // The always-on monitor saw the same clean run: no budget misses.
  EXPECT_FALSE(t.cell.slo().BudgetBreached())
      << t.cell.slo().BreachSummary();
  EXPECT_GT(t.cell.slo().count(obs::SloClass::kGpsAccess), 0);
  EXPECT_EQ(t.cell.slo().misses(obs::SloClass::kGpsAccess), 0);
  EXPECT_EQ(t.cell.slo().misses(obs::SloClass::kGpsDeliveryGap), 0);
}

TEST(SpanTest, DeadlineAccountingSurvivesGpsSlotChurn) {
  // Sign a GPS user off mid-run: the slot manager's shift-down rules
  // (R1-R3) move the survivors to lower slots while their report
  // lifecycles are mid-flight.  Accounting must neither lose nor double a
  // life across the move.
  TracedCell t(2, 4);
  t.cell.RunCycles(6);
  const int leaver = t.gps_nodes.front();
  t.cell.SignOff(leaver);
  t.cell.RunCycles(12);
  ASSERT_EQ(t.trace.dropped(), 0u);

  bool saw_shift = false;
  t.trace.ForEach([&](const obs::Event& e) {
    if (e.kind != obs::EventKind::kGpsSlotShift) return;
    saw_shift = true;
    EXPECT_LT(e.a1, e.a0) << "R1-R3 only ever shift DOWN";
  });
  ASSERT_TRUE(saw_shift) << "sign-off of a slot holder must emit shifts";

  std::map<int, int> delivered_per_node;
  for (const obs::Lifecycle& lc : obs::CollectLifecycles(t.trace)) {
    if (lc.cls != obs::kClassGps) continue;
    // Every lifecycle that burned a GPS slot still terminates (perfect
    // channel: its slot resolves, and resolves decoded, in-cycle); the one
    // open life per node is the current fix awaiting next cycle's slot.
    if (lc.HasBirth() && lc.node != leaver && lc.Has(obs::kStageSlotTx)) {
      EXPECT_TRUE(lc.Complete())
          << "gps lifecycle " << lc.id << " of node " << lc.node
          << " left open across the shift";
    }
    if (lc.Complete() && lc.stages.back().stage == obs::kStageDelivered) {
      ++delivered_per_node[lc.node];
    }
  }
  // Survivors keep their once-per-cycle cadence through the churn.
  for (int node : t.gps_nodes) {
    if (node == leaver) continue;
    EXPECT_GT(delivered_per_node[node], 8) << "node " << node;
  }
  EXPECT_FALSE(t.cell.slo().BudgetBreached())
      << "slot shift-down must not cost a survivor its deadline: "
      << t.cell.slo().BreachSummary();
  ExpectSlotTxSpansMatchBursts(t.trace);
}

TEST(SpanTest, CfOverlapLastSlotLifecycleStillAcked) {
  // The paper's deliberate overlap: the last reverse data slot of cycle
  // n-1 is still on the air while CF1 of cycle n is transmitted, so its
  // ack can only arrive one control field later.  The lifecycle must ride
  // through that without a spurious retry/drop.
  TracedCell t(5, 2, 99);
  for (int c = 0; c < 15; ++c) {
    for (int n : t.data_nodes) t.cell.SendUplinkMessage(n, 400);
    t.cell.RunCycles(1);
  }
  t.cell.RunCycles(8);
  ASSERT_EQ(t.trace.dropped(), 0u);

  // Collect the cycle starts so we can spot overlap-straddling bursts.
  std::vector<Tick> cycle_starts;
  t.trace.ForEach([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kCycleStart)
      cycle_starts.push_back(e.span.begin);
  });
  ASSERT_GE(cycle_starts.size(), 3u);

  const std::vector<obs::Lifecycle> lifecycles =
      obs::CollectLifecycles(t.trace);
  int overlapping = 0;
  for (const obs::Lifecycle& lc : lifecycles) {
    if (lc.cls != obs::kClassData || !lc.HasBirth()) continue;
    for (const auto& s : lc.stages) {
      if (s.stage != obs::kStageSlotTx) continue;
      const bool straddles = std::any_of(
          cycle_starts.begin(), cycle_starts.end(), [&](Tick start) {
            return s.span.begin < start && start < s.span.end;
          });
      if (!straddles) continue;
      ++overlapping;
      EXPECT_TRUE(lc.Complete())
          << "overlap-slot lifecycle " << lc.id << " left open";
      EXPECT_EQ(lc.stages.back().stage, obs::kStageAcked)
          << "overlap-slot packet must end acked, not dropped/retried out";
    }
  }
  ASSERT_GT(overlapping, 0)
      << "under sustained load the last-slot/CF1 overlap must occur";

  // Cross-check against the timeline reconstructor's own overlap metric.
  const obs::Timeline timeline = obs::ReconstructTimeline(t.trace);
  Tick total_overlap = 0;
  for (const obs::TimelineCycle& c : timeline.cycles)
    total_overlap += c.cf_overlap;
  EXPECT_GT(total_overlap, 0);
}

TEST(SpanTest, SloPercentilesMatchOfflineRecomputation) {
  // An unperturbed Fig-8 load point (shortened): the monitor's streaming
  // percentiles must agree with an offline recomputation from the recorded
  // lifecycle spans to within one histogram bucket.
  exp::ScenarioSpec spec = exp::LoadPoint(0.5);
  spec.warmup_cycles = 20;
  spec.measure_cycles = 120;

  exp::ScenarioRun run(spec);
  obs::EventTrace trace(1 << 20);
  run.BuildPopulation();
  run.StartWorkloads();
  run.Warmup();  // resets stats, so the SLO window starts here...
  run.cell().AttachTrace(&trace);  // ...exactly where the trace starts
  run.Measure();
  ASSERT_EQ(trace.dropped(), 0u);

  // Offline: recompute each class's samples from the raw spans.
  std::vector<double> gps_access;
  std::vector<double> data_access;
  std::map<int, std::vector<Tick>> gps_delivered;
  for (const obs::Lifecycle& lc : obs::CollectLifecycles(trace)) {
    Tick birth_detail = 0;
    Tick birth_tick = 0;
    bool have_birth = lc.HasBirth();
    bool want_gps_tx = have_birth;
    bool want_data_tx = have_birth;
    if (have_birth) {
      birth_detail = lc.stages.front().detail;
      birth_tick = lc.stages.front().tick;
    }
    for (const auto& s : lc.stages) {
      if (s.stage == obs::kStageSlotTx && lc.cls == obs::kClassGps &&
          want_gps_tx) {
        gps_access.push_back(ToSeconds(s.span.begin - birth_detail));
        want_gps_tx = false;  // first TX only
      }
      if (s.stage == obs::kStageSlotTx && lc.cls == obs::kClassData &&
          s.detail == 1 && want_data_tx) {
        data_access.push_back(ToSeconds(s.span.begin - birth_tick));
        want_data_tx = false;  // attempt 1 only
      }
      if (s.stage == obs::kStageDelivered && lc.cls == obs::kClassGps) {
        gps_delivered[lc.node].push_back(s.span.end);
      }
    }
  }
  std::vector<double> gps_gap;
  for (auto& [node, arrivals] : gps_delivered) {
    std::sort(arrivals.begin(), arrivals.end());
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      gps_gap.push_back(ToSeconds(arrivals[i] - arrivals[i - 1]));
    }
  }

  const obs::SloMonitor& slo = run.cell().slo();
  const auto check_class = [&](obs::SloClass c, std::vector<double> samples) {
    SCOPED_TRACE(obs::SloClassName(c));
    ASSERT_FALSE(samples.empty());
    std::sort(samples.begin(), samples.end());
    // The trace window and the SLO window share a boundary, but a packet
    // in flight across it is observed by the monitor with its birth
    // outside the trace — so sample COUNTS may differ by a few...
    const std::int64_t monitor_n = slo.count(c);
    EXPECT_NEAR(static_cast<double>(monitor_n),
                static_cast<double>(samples.size()), 8.0);
    // ...but quantiles must agree to within one histogram bucket.
    const obs::LogHistogram& hist = slo.histogram(c);
    for (const double q : {0.50, 0.90, 0.99}) {
      const double offline =
          samples[static_cast<std::size_t>(std::ceil(
              q * static_cast<double>(samples.size()))) - 1];
      const double monitor = hist.Quantile(q);
      const double lo = hist.BucketLower(hist.BucketLower(offline) * 0.999);
      const double hi = hist.BucketUpper(hist.BucketUpper(offline) * 1.001);
      EXPECT_GE(monitor, lo) << "q=" << q << " offline=" << offline;
      EXPECT_LE(monitor, hi) << "q=" << q << " offline=" << offline;
    }
  };
  check_class(obs::SloClass::kGpsAccess, gps_access);
  check_class(obs::SloClass::kDataAccess, data_access);
  check_class(obs::SloClass::kGpsDeliveryGap, gps_gap);

  const exp::RunResult result = run.Finish();
  ASSERT_EQ(result.slo.size(), static_cast<std::size_t>(obs::kSloClassCount));
  EXPECT_EQ(result.slo[static_cast<int>(obs::SloClass::kGpsAccess)].count,
            slo.count(obs::SloClass::kGpsAccess));
}

TEST(SpanTest, SweepSloSummariesIdenticalAcrossJobs) {
  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : {0.5, 0.9}) {
    exp::ScenarioSpec spec = exp::LoadPoint(rho);
    spec.warmup_cycles = 10;
    spec.measure_cycles = 60;
    specs.push_back(spec);
  }
  const std::vector<exp::RunResult> serial = exp::SweepRunner(1).Run(specs);
  const std::vector<exp::RunResult> parallel = exp::SweepRunner(4).Run(specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(exp::ResultSignature(serial[i]),
              exp::ResultSignature(parallel[i]));
    ASSERT_EQ(serial[i].slo.size(), parallel[i].slo.size());
    for (std::size_t c = 0; c < serial[i].slo.size(); ++c) {
      const obs::SloClassSummary& a = serial[i].slo[c];
      const obs::SloClassSummary& b = parallel[i].slo[c];
      EXPECT_EQ(a.count, b.count);
      EXPECT_EQ(a.misses, b.misses);
      EXPECT_EQ(a.near_misses, b.near_misses);
      EXPECT_EQ(a.p50, b.p50);
      EXPECT_EQ(a.p99, b.p99);
      EXPECT_EQ(a.max_seconds, b.max_seconds);
    }
    // SLO observations happen on every run and miss counts are nonzero
    // signals only; the unperturbed points must observe GPS traffic.
    EXPECT_GT(serial[i].slo[static_cast<int>(obs::SloClass::kGpsAccess)].count,
              0);
  }
}

TEST(SpanTest, BreakdownColumnsLineUpAcrossClassesAndStages) {
  // Every transition row's "->" and "n=" start in the same column, whatever
  // its class ("gps" / "data") and stage names ("queued" / "grant_rx").
  TracedCell t(4, 2);
  for (int c = 0; c < 10; ++c) {
    for (int n : t.data_nodes) t.cell.SendUplinkMessage(n, 120 + 11 * n);
    t.cell.RunCycles(1);
  }
  t.cell.RunCycles(30);
  std::ostringstream report;
  obs::WriteLifecycleReport(report, t.trace);
  std::istringstream rows(report.str());
  std::set<std::string> classes;
  std::set<std::string> from_stages;
  std::size_t arrow_col = std::string::npos;
  std::size_t count_col = std::string::npos;
  std::string line;
  while (std::getline(rows, line)) {
    if (!line.starts_with("  ")) continue;  // a transition row
    std::istringstream fields(line);
    std::string cls, from;
    fields >> cls >> from;
    classes.insert(cls);
    from_stages.insert(from);
    if (arrow_col == std::string::npos) {
      arrow_col = line.find(" -> ");
      count_col = line.find(" n=");
    }
    EXPECT_EQ(line.find(" -> "), arrow_col) << line;
    EXPECT_EQ(line.find(" n="), count_col) << line;
  }
  EXPECT_EQ(classes, (std::set<std::string>{"data", "gps"})) << report.str();
  EXPECT_TRUE(from_stages.contains("queued")) << report.str();
  EXPECT_TRUE(from_stages.contains("grant_rx")) << report.str();
}

TEST(SpanTest, FlightRecorderDumpsOnGilbertElliottBreach) {
  // An erasure-bursty reverse channel eventually costs a GPS user its slot
  // and blows the 4 s delivery-gap budget; the flight observer must trip
  // and write a complete dump directory bracketing the failure.
  mac::CellConfig base;
  base.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  TracedCell t(4, 4, 7, base);

  analysis::ProtocolAuditor auditor;
  t.cell.AddObserver(&auditor);
  obs::FlightRecorder recorder;
  recorder.AttachTrace(&t.trace);
  recorder.AttachSlo(&t.cell.slo());
  recorder.SetScenario("span_test GE breach scenario");
  recorder.SetProvenance("# test provenance");
  analysis::FlightRecorderObserver observer(&recorder, &auditor);
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "span_test_flight";
  std::filesystem::remove_all(dir);
  observer.SetDumpDir(dir.string());
  t.cell.AddObserver(&observer);

  for (int c = 0; c < 300 && !recorder.tripped(); ++c) t.cell.RunCycles(1);

  ASSERT_TRUE(recorder.tripped()) << "GE channel never breached a budget";
  EXPECT_TRUE(observer.dumped()) << observer.dump_error();
  EXPECT_GT(recorder.snapshots(), 0u);
  EXPECT_LE(recorder.snapshots(), obs::FlightRecorder::kMaxCycles);
  EXPECT_NE(recorder.trip_reason().find("slo:"), std::string::npos)
      << recorder.trip_reason();
  for (const char* name : {"MANIFEST.txt", "events.jsonl", "lifecycles.txt",
                           "slo_report.txt", "scenario.txt"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / name)) << name;
  }
  std::ifstream manifest(dir / "MANIFEST.txt");
  std::stringstream contents;
  contents << manifest.rdbuf();
  EXPECT_NE(contents.str().find("reason: slo:"), std::string::npos)
      << contents.str();
  // The dumped event window must contain the dropped lifecycle that blew
  // the budget (the post-mortem the dump exists for).
  std::ifstream events(dir / "events.jsonl");
  std::string line;
  bool saw_dropped_lifecycle = false;
  while (std::getline(events, line)) {
    if (line.find("\"kind\":\"lifecycle\"") != std::string::npos &&
        line.find("\"a0\":9") != std::string::npos) {
      saw_dropped_lifecycle = true;
    }
  }
  EXPECT_TRUE(saw_dropped_lifecycle);
  // lifecycles.txt tells that story: the breach is a blown GPS budget.
  std::ifstream lifecycles(dir / "lifecycles.txt");
  std::stringstream report;
  report << lifecycles.rdbuf();
  EXPECT_NE(report.str().find("\nBLOWN BUDGET: node "), std::string::npos)
      << report.str();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace osumac
