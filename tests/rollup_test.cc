// Tests for mergeable telemetry rollups: LogHistogram::Merge,
// SloMonitor::Merge and the network-level SLO rollup.  The load-bearing
// property, pinned here: merging any partition of one observation stream,
// in any order, reproduces the single-monitor digest bit-for-bit — every
// field is integer counts or a max of exact inputs, so nothing ever
// averages or drifts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "osumac/osumac.h"

namespace osumac::obs {
namespace {

/// Deterministic observation stream: (class, seconds) pairs spanning the
/// histogram range, including sub-lo and over-budget outliers.
struct Observation {
  SloClass cls;
  double seconds;
};

std::vector<Observation> MakeStream(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Observation> stream;
  stream.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto cls = static_cast<SloClass>(rng.UniformInt(0, kSloClassCount - 1));
    // Log-uniform over [1e-4, 1e2) s: exercises bucket 0, the overflow
    // bucket, misses, and near-misses for every class budget.
    const double exponent = rng.UniformReal(-4.0, 2.0);
    stream.push_back({cls, std::pow(10.0, exponent)});
  }
  return stream;
}

std::string Report(const SloMonitor& m) {
  std::ostringstream out;
  m.WriteReport(out);
  return out.str();
}

void ExpectSummariesIdentical(const SloMonitor& a, const SloMonitor& b) {
  const std::vector<SloClassSummary> sa = a.Summary();
  const std::vector<SloClassSummary> sb = b.Summary();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name);
    EXPECT_EQ(sa[i].count, sb[i].count);
    EXPECT_EQ(sa[i].misses, sb[i].misses);
    EXPECT_EQ(sa[i].near_misses, sb[i].near_misses);
    // Quantiles are recomputed from the merged buckets, never averaged,
    // so they must be bit-identical, not merely close.
    EXPECT_EQ(sa[i].p50, sb[i].p50) << sa[i].name;
    EXPECT_EQ(sa[i].p90, sb[i].p90) << sa[i].name;
    EXPECT_EQ(sa[i].p99, sb[i].p99) << sa[i].name;
    EXPECT_EQ(sa[i].max_seconds, sb[i].max_seconds) << sa[i].name;
  }
  EXPECT_EQ(Report(a), Report(b));
}

// --- LogHistogram ------------------------------------------------------------

TEST(LogHistogramMergeTest, PartitionedMergeEqualsSingleStream) {
  LogHistogram whole(1e-3, 1e2, 10);
  LogHistogram parts[3] = {{1e-3, 1e2, 10}, {1e-3, 1e2, 10}, {1e-3, 1e2, 10}};
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const double v = std::pow(10.0, rng.UniformReal(-4.0, 3.0));
    whole.Add(v);
    parts[rng.UniformInt(0, 2)].Add(v);
  }
  LogHistogram merged(1e-3, 1e2, 10);
  for (const LogHistogram& part : parts) merged.Merge(part);
  ASSERT_EQ(merged.buckets(), whole.buckets());
  for (std::size_t b = 0; b < whole.buckets(); ++b) {
    EXPECT_EQ(merged.bucket_count(b), whole.bucket_count(b)) << "bucket " << b;
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.max_seen(), whole.max_seen());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogramMergeTest, EmptyMergeIsIdentity) {
  LogHistogram a(1e-3, 1e2, 10);
  a.Add(0.5);
  a.Add(7.0);
  const LogHistogram empty(1e-3, 1e2, 10);
  LogHistogram merged = a;
  merged.Merge(empty);
  EXPECT_EQ(merged.count(), a.count());
  EXPECT_EQ(merged.max_seen(), a.max_seen());
  EXPECT_EQ(merged.Quantile(0.5), a.Quantile(0.5));
}

/// The definition bucket_digest() keeps incrementally, recomputed from the
/// bucket counts.
std::uint64_t RecomputedDigest(const LogHistogram& h) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < h.buckets(); ++i) {
    sum += static_cast<std::uint64_t>(h.bucket_count(i)) * DigestKey(i);
  }
  return sum;
}

/// The SloMonitor shape: 1e-4 s .. 1e5 s at 20 buckets per decade.
LogHistogram SloShaped() { return LogHistogram(1e-4, 1e5, 20); }

/// A value landing in the middle of bucket `i` of `h`.
double MidBucket(const LogHistogram& h, std::size_t i) {
  return h.lo() * std::pow(10.0, (static_cast<double>(i) + 0.5) / 20.0);
}

TEST(LogHistogramDigestTest, RunningDigestIsTheKeyedSumOfTheBuckets) {
  LogHistogram a = SloShaped();
  LogHistogram b = SloShaped();
  ASSERT_EQ(a.buckets(), 180u);
  EXPECT_EQ(a.bucket_digest(), 0u);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform over [1e-5, 1e6): both clamped edge buckets included.
    (rng.Bernoulli(0.5) ? a : b).Add(std::pow(10.0, rng.UniformReal(-5.0, 6.0)));
    if (i % 97 == 0) {
      EXPECT_EQ(a.bucket_digest(), RecomputedDigest(a));
    }
  }
  EXPECT_EQ(a.bucket_digest(), RecomputedDigest(a));
  EXPECT_EQ(b.bucket_digest(), RecomputedDigest(b));
  LogHistogram ab = a;
  ab.Merge(b);
  LogHistogram ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.bucket_digest(), RecomputedDigest(ab));
  EXPECT_EQ(ab.bucket_digest(), ba.bucket_digest());
}

TEST(LogHistogramDigestTest, EveryExtraOrMovedSampleChangesTheDigest) {
  LogHistogram base = SloShaped();
  Rng rng(11);
  for (int i = 0; i < 500; ++i) base.Add(std::pow(10.0, rng.UniformReal(-4.0, 5.0)));
  // One extra sample in bucket i, for every i.  base + sample in i versus
  // base + sample in j is one sample moved between buckets i and j, so
  // pairwise-distinct digests cover every move as well.
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < base.buckets(); ++i) {
    LogHistogram plus = base;
    plus.Add(MidBucket(base, i));
    ASSERT_EQ(plus.bucket_count(i), base.bucket_count(i) + 1) << "bucket " << i;
    EXPECT_NE(plus.bucket_digest(), base.bucket_digest()) << "bucket " << i;
    digests.push_back(plus.bucket_digest());
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::adjacent_find(digests.begin(), digests.end()), digests.end())
      << "two buckets share a key: moving a sample between them goes unseen";
}

#if GTEST_HAS_DEATH_TEST
TEST(LogHistogramMergeDeathTest, MismatchedShapesRefuseToMerge) {
  LogHistogram a(1e-3, 1e2, 10);
  LogHistogram b(1e-2, 1e2, 10);
  EXPECT_DEATH(a.Merge(b), "lo_");
}
#endif

// --- SloMonitor --------------------------------------------------------------

TEST(SloRollupTest, ShuffledPartitionsMergeToTheSingleMonitorDigest) {
  const std::vector<Observation> stream = MakeStream(1234, 4000);
  constexpr int kCells = 7;

  // One monitor sees the whole stream; kCells monitors see a partition
  // of it (round-robin with a deterministic twist, so partition sizes
  // differ and every cell sees every class eventually).
  SloMonitor single;
  std::vector<SloMonitor> cells(kCells);
  Rng assign(77);
  for (const Observation& ob : stream) {
    single.Observe(ob.cls, ob.seconds);
    cells[static_cast<std::size_t>(assign.UniformInt(0, kCells - 1))].Observe(
        ob.cls, ob.seconds);
  }

  // Merge the per-cell monitors in several orders: forward, reverse, and
  // deterministic shuffles.  Every order must reproduce the single
  // monitor's digest exactly.
  std::vector<int> order(kCells);
  for (int i = 0; i < kCells; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng shuffle(31);
  for (int trial = 0; trial < 6; ++trial) {
    SloMonitor rollup;
    for (const int i : order) rollup.Merge(cells[static_cast<std::size_t>(i)]);
    ExpectSummariesIdentical(rollup, single);
    if (trial == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      for (int i = kCells - 1; i > 0; --i) {
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(shuffle.UniformInt(0, i))]);
      }
    }
  }
}

TEST(SloRollupTest, PairwiseTreeMergeEqualsLinearMerge) {
  const std::vector<Observation> stream = MakeStream(555, 1000);
  SloMonitor cells[4];
  Rng assign(42);
  for (const Observation& ob : stream) {
    cells[assign.UniformInt(0, 3)].Observe(ob.cls, ob.seconds);
  }

  SloMonitor linear;
  for (const SloMonitor& c : cells) linear.Merge(c);

  // ((0+1) + (2+3)) — the shape a parallel reduction would use.
  SloMonitor left;
  left.Merge(cells[0]);
  left.Merge(cells[1]);
  SloMonitor right;
  right.Merge(cells[2]);
  right.Merge(cells[3]);
  SloMonitor tree;
  tree.Merge(left);
  tree.Merge(right);
  ExpectSummariesIdentical(tree, linear);
}

TEST(SloRollupTest, MergePreservesBreaches) {
  SloMonitor quiet;
  quiet.Observe(SloClass::kGpsAccess, 0.5);
  SloMonitor breached;
  breached.Observe(SloClass::kGpsAccess, 9.0);  // 4 s budget blown
  EXPECT_FALSE(quiet.BudgetBreached());
  quiet.Merge(breached);
  EXPECT_TRUE(quiet.BudgetBreached());
  EXPECT_NE(quiet.BreachSummary(), "");
}

// --- network rollup ----------------------------------------------------------

exp::NetworkScenarioSpec SmallNetwork() {
  exp::NetworkScenarioSpec spec;
  spec.name = "rollup_net";
  spec.cells = 3;
  spec.data_users_per_cell = 4;
  spec.gps_users_per_cell = 2;
  spec.registration_cycles = 8;
  spec.warmup_cycles = 4;
  spec.measure_cycles = 24;
  spec.seed = 91;
  return spec;
}

TEST(NetworkRollupTest, SloRollupMatchesManualPerCellMergeAtAnyOrder) {
  exp::NetworkScenarioRun run(SmallNetwork());
  run.BuildPopulation();
  run.Warmup();
  run.Measure();

  const mac::Network& net = run.network();
  SloMonitor forward;
  for (int i = 0; i < net.cell_count(); ++i) forward.Merge(net.cell(i).slo());
  SloMonitor backward;
  for (int i = net.cell_count() - 1; i >= 0; --i) {
    backward.Merge(net.cell(i).slo());
  }
  ExpectSummariesIdentical(forward, backward);
  ExpectSummariesIdentical(net.SloRollup(), forward);
  // The rollup actually aggregates: totals are the per-cell sums.
  std::int64_t per_cell_count = 0;
  for (int i = 0; i < net.cell_count(); ++i) {
    per_cell_count += net.cell(i).slo().count(SloClass::kGpsAccess);
  }
  EXPECT_EQ(net.SloRollup().count(SloClass::kGpsAccess), per_cell_count);
  EXPECT_GT(per_cell_count, 0);
}

TEST(NetworkRollupTest, NetworkScenarioIsDeterministicAndFillsTheRollup) {
  const exp::RunResult first = exp::RunNetworkScenario(SmallNetwork());
  const exp::RunResult second = exp::RunNetworkScenario(SmallNetwork());
  EXPECT_EQ(exp::ResultSignature(first), exp::ResultSignature(second));

  EXPECT_EQ(first.network.cells, 3);
  EXPECT_EQ(first.network.subscribers, 18);
  EXPECT_GE(first.network.backbone_messages, 0);
  EXPECT_GE(first.network.handoffs, 0);
  EXPECT_GT(first.measured_cycles, 0);
  EXPECT_FALSE(first.slo.empty());

  // The sweep JSON carries the network block for network results...
  std::ostringstream json;
  exp::ScenarioSpec placeholder;
  exp::WriteSweepJson(json, "rollup_test", 1, 0.0, {placeholder}, {first});
  EXPECT_NE(json.str().find("\"network\": {\"cells\": 3"), std::string::npos);
  EXPECT_NE(json.str().find("\"subscribers\": 18"), std::string::npos);
  // ...and single-cell results emit no such block, keeping existing
  // artifacts byte-identical.
  std::ostringstream single_json;
  exp::RunResult single;
  single.name = "single";
  exp::WriteSweepJson(single_json, "rollup_test", 1, 0.0, {placeholder},
                      {single});
  EXPECT_EQ(single_json.str().find("\"network\""), std::string::npos);
}

TEST(NetworkRollupTest, RegisteredNetworkGaugesCoverCellsAndCounters) {
  exp::NetworkScenarioRun run(SmallNetwork());
  run.BuildPopulation();
  run.Warmup();
  run.Measure();

  MetricsRegistry registry;
  metrics::RegisterNetworkMetrics(registry, run.network());
  const MetricsRegistry::Snapshot snap = registry.Collect();
  EXPECT_EQ(snap.at("net.cells"), 3.0);
  EXPECT_EQ(snap.at("net.subscribers"), 18.0);
  ASSERT_TRUE(registry.Contains("net.backbone_messages"));
  ASSERT_TRUE(registry.Contains("net.handoffs"));
  ASSERT_TRUE(registry.Contains("net.backbone_unrouted"));
  // Per-cell labels: every cell contributes its full gauge set under
  // cell.<i>.*, including the SLO digests.
  for (int i = 0; i < 3; ++i) {
    const std::string prefix = "cell." + std::to_string(i) + ".";
    EXPECT_TRUE(registry.Contains(prefix + "bs.cycles")) << prefix;
    EXPECT_TRUE(registry.Contains(prefix + "slo.gps_access.count")) << prefix;
  }
  // The net.* counter gauges agree with the counters they mirror.
  EXPECT_EQ(snap.at("net.backbone_messages"),
            static_cast<double>(run.network().counters().backbone_messages));
  EXPECT_EQ(snap.at("net.handoffs"),
            static_cast<double>(run.network().counters().handoffs));
}

}  // namespace
}  // namespace osumac::obs
