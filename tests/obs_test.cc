// Tests for the observability layer: ring-buffered event trace, metrics
// registry, export sinks, and the airtime timeline reconstructor.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "osumac/osumac.h"

namespace osumac::obs {
namespace {

// --- EventTrace ring buffer --------------------------------------------------

Event NumberedEvent(int i) {
  Event e;
  e.kind = EventKind::kDelivery;
  e.tick = 100 * i;
  e.a0 = i;
  return e;
}

TEST(EventTraceTest, RecordsInInsertionOrder) {
  EventTrace trace(8);
  for (int i = 0; i < 5; ++i) trace.Record(NumberedEvent(i));
  EXPECT_EQ(trace.capacity(), 8u);
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace.recorded(), 5u);
  EXPECT_EQ(trace.dropped(), 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).a0, static_cast<std::int64_t>(i));
  }
}

TEST(EventTraceTest, WrapOverwritesOldest) {
  EventTrace trace(8);
  for (int i = 0; i < 20; ++i) trace.Record(NumberedEvent(i));
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.recorded(), 20u);
  EXPECT_EQ(trace.dropped(), 12u);
  // at(0) is the oldest retained event: 12, 13, ..., 19.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).a0, static_cast<std::int64_t>(12 + i));
  }
  const std::vector<Event> snap = trace.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().a0, 12);
  EXPECT_EQ(snap.back().a0, 19);
}

TEST(EventTraceTest, ClearResetsCounters) {
  EventTrace trace(4);
  for (int i = 0; i < 10; ++i) trace.Record(NumberedEvent(i));
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  trace.Record(NumberedEvent(42));
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.at(0).a0, 42);
}

TEST(EventTraceTest, ClockAndCycleStampRecords) {
  EventTrace trace(4);
  Tick now = 7000;
  trace.SetClock([&now] { return now; });
  trace.SetCycle(3);
  trace.Record(Event{});
  EXPECT_EQ(trace.at(0).tick, 7000);
  EXPECT_EQ(trace.at(0).cycle, 3);
  now = 8000;
  trace.SetCycle(4);
  trace.Record(Event{});
  EXPECT_EQ(trace.at(1).tick, 8000);
  EXPECT_EQ(trace.at(1).cycle, 4);
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesAndDeltas) {
  MetricsRegistry registry;
  double events = 5.0;
  double queue_depth = 2.0;
  registry.RegisterGauge("events.total", [&events] { return events; });
  registry.RegisterGauge("queue.depth", [&queue_depth] { return queue_depth; });

  const MetricsRegistry::Snapshot first = registry.Collect();
  EXPECT_DOUBLE_EQ(MetricsRegistry::Value(first, "events.total"), 5.0);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Value(first, "queue.depth"), 2.0);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Value(first, "missing"), 0.0);
  EXPECT_TRUE(registry.Contains("events.total"));
  EXPECT_FALSE(registry.Contains("missing"));

  events += 10.0;
  queue_depth = 7.0;
  const MetricsRegistry::Snapshot second = registry.Collect();
  EXPECT_DOUBLE_EQ(MetricsRegistry::Delta(second, first, "events.total"), 10.0);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Delta(second, first, "queue.depth"), 5.0);
  // Names absent from `prev` delta from zero.
  EXPECT_DOUBLE_EQ(MetricsRegistry::Delta(second, {}, "events.total"), 15.0);
}

TEST(MetricsRegistryTest, CsvAndJsonExport) {
  MetricsRegistry registry;
  registry.RegisterGauge("b.count", [] { return 3.0; });
  registry.RegisterGauge("a.gauge", [] { return 1.5; });

  std::ostringstream csv;
  registry.WriteCsv(csv);
  EXPECT_EQ(csv.str(), "metric,value\na.gauge,1.5\nb.count,3\n");

  std::ostringstream json;
  registry.WriteJson(json);
  EXPECT_EQ(json.str(), "{\n  \"a.gauge\": 1.5,\n  \"b.count\": 3\n}\n");
}

// --- cell-driven traces ------------------------------------------------------

struct TracedCell {
  explicit TracedCell(int data_users, int gps_users, std::uint64_t seed = 31)
      : config(MakeConfig(seed)), cell(config) {
    for (int i = 0; i < data_users; ++i) {
      nodes.push_back(cell.AddSubscriber(false));
      cell.PowerOn(nodes.back());
    }
    for (int i = 0; i < gps_users; ++i) cell.PowerOn(cell.AddSubscriber(true));
    cell.RunCycles(12);  // registration settles
    cell.ResetStats();
    cell.AttachTrace(&trace);
  }

  static mac::CellConfig MakeConfig(std::uint64_t seed) {
    mac::CellConfig c;
    c.seed = seed;
    return c;
  }

  mac::CellConfig config;
  mac::Cell cell;
  std::vector<int> nodes;
  EventTrace trace;
};

TEST(EventOrderingTest, TicksMonotoneAcrossCfBoundaries) {
  TracedCell t(3, 2);
  t.cell.SendUplinkMessage(t.nodes[0], 200);
  t.cell.RunCycles(5);
  ASSERT_GT(t.trace.size(), 0u);
  ASSERT_EQ(t.trace.dropped(), 0u);

  // Emission order is simulation-time order.
  Tick prev = -1;
  t.trace.ForEach([&prev](const Event& e) {
    EXPECT_GE(e.tick, prev);
    prev = e.tick;
  });

  // Within each full cycle: the cycle_start record leads, the previous
  // cycle's overlapping last data slot resolves before CF1 goes on the air,
  // and CF2 follows CF1.
  std::vector<Event> events = t.trace.Snapshot();
  for (const Event& start : events) {
    if (start.kind != EventKind::kCycleStart) continue;
    const Tick begin = start.span.begin;
    const Tick end = start.span.end;
    Tick cf1_tick = -1;
    Tick cf2_tick = -1;
    Tick last_slot_resolved = -1;
    for (const Event& e : events) {
      if (e.tick < begin || e.tick >= end) continue;
      if (e.kind == EventKind::kCfDelivered) {
        (e.a0 == 0 ? cf1_tick : cf2_tick) = e.tick;
      }
      if (e.kind == EventKind::kSlotResolved && e.span.begin < begin) {
        last_slot_resolved = e.tick;  // slot of the previous cycle
      }
    }
    ASSERT_GT(cf1_tick, begin) << "every cycle delivers CF1";
    if (last_slot_resolved >= 0) {
      EXPECT_LT(last_slot_resolved, cf1_tick)
          << "the overlapping last slot resolves before CF1 delivery";
    }
    if (cf2_tick >= 0) {
      EXPECT_GT(cf2_tick, cf1_tick) << "CF2 follows CF1";
    }
  }
}

TEST(ChromeTraceTest, OutputIsWellFormedJson) {
  TracedCell t(3, 2);
  t.cell.SendUplinkMessage(t.nodes[0], 300);
  t.cell.RunCycles(3);

  std::ostringstream out;
  WriteChromeTrace(out, t.trace, "# provenance line");
  const std::string j = out.str();

  // Structural JSON check: braces/brackets balance outside string literals,
  // and the trace-event envelope keys are present.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : j) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos) << "complete spans present";
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos) << "thread names present";
  EXPECT_NE(j.find("provenance"), std::string::npos);

  std::ostringstream jsonl;
  WriteJsonl(jsonl, t.trace);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_EQ(count, t.trace.size());
}

TEST(TimelineTest, ReconstructsKnownCycleShape) {
  // 2 GPS buses + 3 data users => reverse format 2: 3 GPS slots, 9 data
  // slots, 44-byte payloads.
  TracedCell t(3, 2);
  t.cell.SendUplinkMessage(t.nodes[0], 88);  // exactly 2 packets
  t.cell.RunCycles(4);
  ASSERT_EQ(t.trace.dropped(), 0u);

  const Timeline timeline = ReconstructTimeline(t.trace);
  ASSERT_GE(timeline.cycles.size(), 3u);
  for (const TimelineCycle& c : timeline.cycles) {
    EXPECT_EQ(c.format, 2);
    EXPECT_EQ(c.span.length(), mac::kCycleTicks);
    EXPECT_EQ(c.capacity_bytes, 9 * mac::kPacketPayloadBytes);
    // Both active buses report every cycle: GPS airtime is exactly two
    // format-2 GPS slots.
    EXPECT_EQ(c.reverse.gps, 2 * phy::kGpsSlotTicks);
    // Control fields on the air: CF1 always, CF2 whenever a listener was
    // designated.
    EXPECT_GT(c.forward.control, 0);
    // Occupancy partitions the cycle: busy + idle == cycle span.
    EXPECT_EQ(c.reverse.busy() + c.reverse.idle, mac::kCycleTicks);
    EXPECT_EQ(c.forward.busy() + c.forward.idle, mac::kCycleTicks);
  }
  // The 88-byte message crossed the air as 88 unique payload bytes.
  EXPECT_EQ(timeline.payload_bytes, 88);
  EXPECT_EQ(timeline.payload_bytes, t.cell.metrics().unique_payload_bytes);
  EXPECT_EQ(timeline.capacity_bytes, t.cell.metrics().capacity_bytes);

  // Half-duplex guard: every observed TX/RX gap respects the 20 ms switch.
  for (const auto& [node, gap] : timeline.min_tx_rx_gap) {
    EXPECT_GE(gap, phy::kHalfDuplexSwitchTicks) << "node " << node;
  }
}

TEST(TimelineTest, UtilizationMatchesCellMetrics) {
  TracedCell t(5, 2, 77);
  // Sustained load so utilization is non-trivial.
  for (int c = 0; c < 20; ++c) {
    for (int n : t.nodes) t.cell.SendUplinkMessage(n, 100 + 37 * n);
    t.cell.RunCycles(1);
  }
  ASSERT_EQ(t.trace.dropped(), 0u);

  const Timeline timeline = ReconstructTimeline(t.trace);
  const double cell_util = t.cell.metrics().Utilization();
  EXPECT_GT(cell_util, 0.0);
  EXPECT_NEAR(timeline.PaperUtilization(), cell_util, 1e-9);

  const auto figure = metrics::ComputeFigureMetrics(t.cell, t.nodes);
  EXPECT_NEAR(timeline.PaperUtilization(), figure.utilization, 1e-9);

  EXPECT_GT(timeline.ReverseBusyFraction(), 0.0);
  EXPECT_LE(timeline.ReverseBusyFraction(), 1.0);
}

TEST(TimelineTest, CfOverlapVisibleUnderLoad) {
  // The paper's deliberate overlap: the last data slot of cycle n-1 is
  // still on the air when CF1 of cycle n is transmitted.  Under sustained
  // load the reconstructor must observe it.
  TracedCell t(5, 2, 99);
  for (int c = 0; c < 15; ++c) {
    for (int n : t.nodes) t.cell.SendUplinkMessage(n, 400);
    t.cell.RunCycles(1);
  }
  const Timeline timeline = ReconstructTimeline(t.trace);
  Tick total_overlap = 0;
  for (const TimelineCycle& c : timeline.cycles) total_overlap += c.cf_overlap;
  EXPECT_GT(total_overlap, 0) << "last-slot/CF1 overlap never observed";
}

// --- CycleTracer on the registry --------------------------------------------

TEST(CycleTracerRegistryTest, RegistryExposesCellGauges) {
  mac::CellConfig config;
  config.seed = 5;
  mac::Cell cell(config);
  cell.PowerOn(cell.AddSubscriber(false));
  metrics::CycleTracer tracer;
  cell.RunCycles(3);
  tracer.Sample(cell);
  const MetricsRegistry& registry = tracer.registry();
  EXPECT_TRUE(registry.Contains("bs.data_packets_received"));
  EXPECT_TRUE(registry.Contains("cell.utilization"));
  EXPECT_TRUE(registry.Contains("sim.now_ticks"));
  const MetricsRegistry::Snapshot snap = registry.Collect();
  EXPECT_GT(MetricsRegistry::Value(snap, "sim.now_ticks"), 0.0);
}

// --- wall-clock timers -------------------------------------------------------

TEST(WallClockTest, ScopedTimerRecordsAndNullIsNoop) {
  WallTimerRegistry registry;
  {
    ScopedWallTimer timer(registry, "unit");
  }
  {
    ScopedWallTimer timer(&registry, "unit");
  }
  {
    ScopedWallTimer timer(nullptr, "ignored");  // must not crash
  }
  ASSERT_TRUE(registry.timers().count("unit"));
  EXPECT_EQ(registry.timers().at("unit").count(), 2);
  EXPECT_FALSE(registry.timers().count("ignored"));
  std::ostringstream out;
  registry.Report(out);
  EXPECT_NE(out.str().find("unit"), std::string::npos);
}

}  // namespace
}  // namespace osumac::obs
