// Tests for the self-profiling zones: thread-scoped installation, the
// aggregated zone tree, order-invariant Merge(), and the speedscope and
// collapsed-stack exports.
//
// Tree-shape tests drive EnterZone/ExitZone directly with synthetic
// nanosecond values so every expectation is exact — the wall clock never
// feeds an assertion.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "osumac/osumac.h"

namespace osumac::obs {
namespace {

/// Replays a (name, elapsed_ns) call trace into `p`.  Negative elapsed
/// means "enter only"; the paired exit is the next entry with the same
/// depth — callers just script Enter/Exit pairs explicitly instead.
void Zone(Profiler& p, const char* name, std::int64_t ns) {
  p.EnterZone(name);
  p.ExitZone(ns);
}

/// One nested visit: outer { inner } with exact synthetic times.
void NestedVisit(Profiler& p, std::int64_t outer_ns, std::int64_t inner_ns) {
  p.EnterZone("outer");
  Zone(p, "inner", inner_ns);
  p.ExitZone(outer_ns);
}

std::string Speedscope(const Profiler& p) {
  std::ostringstream out;
  WriteSpeedscope(out, p, "test");
  return out.str();
}

std::string Collapsed(const Profiler& p) {
  std::ostringstream out;
  WriteCollapsed(out, p);
  return out.str();
}

// --- zone bookkeeping --------------------------------------------------------

TEST(ProfilerTest, AggregatesCountsAndInclusiveTimeByPath) {
  Profiler p;
  NestedVisit(p, 100, 30);
  NestedVisit(p, 50, 20);
  Zone(p, "other", 7);

  const ZoneNode& root = p.root();
  ASSERT_EQ(root.children.size(), 2u);
  const ZoneNode& outer = *root.children.at("outer");
  EXPECT_EQ(outer.count, 2);
  EXPECT_EQ(outer.total_ns, 150);
  ASSERT_EQ(outer.children.size(), 1u);
  const ZoneNode& inner = *outer.children.at("inner");
  EXPECT_EQ(inner.count, 2);
  EXPECT_EQ(inner.total_ns, 50);
  EXPECT_EQ(outer.self_ns(), 100);  // 150 inclusive - 50 in children
  EXPECT_EQ(p.total_ns(), 157);
  EXPECT_EQ(p.open_depth(), 0);
}

TEST(ProfilerTest, SamePathFromDifferentParentsStaysDistinct) {
  Profiler p;
  p.EnterZone("a");
  Zone(p, "leaf", 10);
  p.ExitZone(10);
  p.EnterZone("b");
  Zone(p, "leaf", 20);
  p.ExitZone(20);

  EXPECT_EQ(p.root().children.at("a")->children.at("leaf")->total_ns, 10);
  EXPECT_EQ(p.root().children.at("b")->children.at("leaf")->total_ns, 20);
}

TEST(ProfilerTest, NegativeElapsedClampsToZero) {
  Profiler p;
  Zone(p, "z", -5);  // clock went backwards; never poison the tree
  EXPECT_EQ(p.root().children.at("z")->total_ns, 0);
  EXPECT_EQ(p.root().children.at("z")->count, 1);
}

TEST(ProfilerTest, SelfNsClampsWhenChildrenOvershoot) {
  Profiler p;
  p.EnterZone("outer");
  Zone(p, "inner", 100);
  p.ExitZone(60);  // timer granularity can make children sum past parent
  EXPECT_EQ(p.root().children.at("outer")->self_ns(), 0);
}

TEST(ProfilerTest, OpenDepthTracksTheZoneStack) {
  Profiler p;
  EXPECT_EQ(p.open_depth(), 0);
  p.EnterZone("a");
  p.EnterZone("b");
  EXPECT_EQ(p.open_depth(), 2);
  p.ExitZone(1);
  p.ExitZone(2);
  EXPECT_EQ(p.open_depth(), 0);
}

TEST(ProfilerTest, ClearThenReenterTheSameLiteral) {
  // EnterZone caches the last child per node by literal address; Clear()
  // frees the root's children, so re-entering the same literal must build
  // a fresh node rather than follow the stale cache.
  static constexpr char kZone[] = "zone";
  Profiler p;
  Zone(p, kZone, 10);
  p.Clear();
  Zone(p, kZone, 5);
  ASSERT_EQ(p.root().children.size(), 1u);
  const ZoneNode& zone = *p.root().children.at("zone");
  EXPECT_EQ(zone.count, 1);
  EXPECT_EQ(zone.total_ns, 5);
  EXPECT_EQ(zone.parent, &p.root());
}

TEST(ProfilerTest, LiteralsWithEqualTextShareOneNode) {
  // Distinct arrays, equal text: the address cache misses, the by-name
  // fallback merges them.
  static constexpr char kFirst[] = "same";
  static constexpr char kSecond[] = "same";
  ASSERT_NE(static_cast<const void*>(kFirst), static_cast<const void*>(kSecond));
  Profiler p;
  Zone(p, kFirst, 1);
  Zone(p, kSecond, 2);
  Zone(p, kFirst, 4);
  Zone(p, kFirst, 8);
  ASSERT_EQ(p.root().children.size(), 1u);
  const ZoneNode& same = *p.root().children.at("same");
  EXPECT_EQ(same.count, 4);
  EXPECT_EQ(same.total_ns, 15);
}

// --- thread-scoped installation ---------------------------------------------

TEST(ProfilerTest, ZonesAreNoOpsWithoutAnInstalledProfiler) {
  EXPECT_EQ(Profiler::Current(), nullptr);
  { OSUMAC_PROFILE_ZONE("unobserved"); }  // must not crash or leak state
  EXPECT_EQ(Profiler::Current(), nullptr);
}

TEST(ProfilerTest, ThreadScopeInstallsNestsAndRestores) {
  Profiler a;
  Profiler b;
  {
    const Profiler::ThreadScope scope_a(&a);
    EXPECT_EQ(Profiler::Current(), &a);
    {
      const Profiler::ThreadScope scope_b(&b);
      EXPECT_EQ(Profiler::Current(), &b);
      { OSUMAC_PROFILE_ZONE("in_b"); }
    }
    EXPECT_EQ(Profiler::Current(), &a);
    { OSUMAC_PROFILE_ZONE("in_a"); }
  }
  EXPECT_EQ(Profiler::Current(), nullptr);
#if !defined(OSUMAC_PROFILER_DISABLED)
  EXPECT_EQ(a.root().children.count("in_a"), 1u);
  EXPECT_EQ(a.root().children.count("in_b"), 0u);
  EXPECT_EQ(b.root().children.count("in_b"), 1u);
#endif
}

TEST(ProfilerTest, NullScopeSilencesZones) {
  Profiler a;
  const Profiler::ThreadScope scope_a(&a);
  {
    const Profiler::ThreadScope mute(nullptr);
    { OSUMAC_PROFILE_ZONE("silenced"); }
  }
  EXPECT_TRUE(a.empty());
}

// --- Merge -------------------------------------------------------------------

/// Three worker profilers with overlapping and disjoint paths.
std::vector<Profiler> Workers() {
  std::vector<Profiler> workers(3);
  NestedVisit(workers[0], 100, 30);
  Zone(workers[0], "solo0", 5);
  NestedVisit(workers[1], 40, 10);
  NestedVisit(workers[1], 60, 25);
  Zone(workers[2], "solo2", 9);
  NestedVisit(workers[2], 7, 7);
  return workers;
}

TEST(ProfilerTest, MergeIsOrderInvariant) {
  // Every permutation of three workers must serialize identically.
  const int orders[][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  std::string reference;
  for (const auto& order : orders) {
    const std::vector<Profiler> workers = Workers();
    Profiler merged;
    for (const int i : order) merged.Merge(workers[static_cast<std::size_t>(i)]);
    const std::string serialized = Speedscope(merged) + Collapsed(merged);
    if (reference.empty()) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference);
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ProfilerTest, MergedPartitionsEqualTheSingleStream) {
  // The same call trace, run whole vs split across workers at visit
  // granularity, must aggregate to the identical tree.
  Profiler whole;
  NestedVisit(whole, 100, 30);
  NestedVisit(whole, 40, 10);
  Zone(whole, "solo0", 5);
  NestedVisit(whole, 60, 25);
  Zone(whole, "solo2", 9);
  NestedVisit(whole, 7, 7);

  std::vector<Profiler> workers = Workers();
  Profiler merged;
  for (const Profiler& w : workers) merged.Merge(w);
  EXPECT_EQ(Speedscope(merged), Speedscope(whole));
  EXPECT_EQ(Collapsed(merged), Collapsed(whole));
}

TEST(ProfilerTest, MergeIntoEmptyCopiesAndClearEmpties) {
  Profiler source;
  NestedVisit(source, 20, 5);
  Profiler dst;
  dst.Merge(source);
  EXPECT_EQ(Speedscope(dst), Speedscope(source));
  dst.Clear();
  EXPECT_TRUE(dst.empty());
  EXPECT_EQ(dst.total_ns(), 0);
}

// --- exports -----------------------------------------------------------------

TEST(ProfilerTest, SpeedscopeExportIsBalancedAndBoundsMatch) {
  Profiler p;
  NestedVisit(p, 100, 30);
  Zone(p, "other", 11);
  const std::string json = Speedscope(p);
  EXPECT_NE(json.find("\"$schema\": "
                      "\"https://www.speedscope.app/file-format-schema.json\""),
            std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"nanoseconds\""), std::string::npos);
  EXPECT_NE(json.find("\"endValue\": 111"), std::string::npos);
  std::size_t opens = 0;
  std::size_t closes = 0;
  for (std::size_t at = json.find("\"type\": \"O\""); at != std::string::npos;
       at = json.find("\"type\": \"O\"", at + 1)) {
    ++opens;
  }
  for (std::size_t at = json.find("\"type\": \"C\""); at != std::string::npos;
       at = json.find("\"type\": \"C\"", at + 1)) {
    ++closes;
  }
  EXPECT_EQ(opens, 3u);  // outer, inner, other
  EXPECT_EQ(opens, closes);
}

TEST(ProfilerTest, CollapsedStacksCarrySelfTimePerPath) {
  Profiler p;
  NestedVisit(p, 100, 30);
  EXPECT_EQ(Collapsed(p), "outer 70\nouter;inner 30\n");
}

TEST(ProfilerTest, CollapsedOmitsZeroSelfNodes) {
  Profiler p;
  p.EnterZone("outer");
  Zone(p, "inner", 50);
  p.ExitZone(50);  // outer's time is entirely its child's
  EXPECT_EQ(Collapsed(p), "outer;inner 50\n");
}

TEST(ProfilerTest, EmptyProfilerExportsCleanly) {
  Profiler p;
  EXPECT_TRUE(p.empty());
  const std::string json = Speedscope(p);
  EXPECT_NE(json.find("\"endValue\": 0"), std::string::npos);
  EXPECT_EQ(Collapsed(p), "");
}

// --- end to end --------------------------------------------------------------

TEST(ProfilerTest, ScenarioRunPopulatesThePipelineZones) {
  exp::ScenarioSpec spec;
  spec.name = "profiled";
  spec.warmup_cycles = 2;
  spec.measure_cycles = 6;
  // A noisy reverse channel, so the RS decoder actually runs: on a
  // perfect channel untouched words skip the decoder entirely and the
  // fec.decode zone would never appear.
  spec.reverse.kind = mac::ChannelModelConfig::Kind::kUniform;
  spec.reverse.symbol_error_prob = 0.01;
  Profiler profiler;
  {
    const Profiler::ThreadScope scope(&profiler);
    (void)exp::RunScenario(spec);
  }
#if defined(OSUMAC_PROFILER_DISABLED)
  EXPECT_TRUE(profiler.empty());
#else
  ASSERT_FALSE(profiler.empty());
  EXPECT_EQ(profiler.open_depth(), 0);
  const std::string folded = Collapsed(profiler);
  for (const char* zone : {"exp.measure", "cell.plan", "cell.cf",
                           "fec.encode", "fec.decode"}) {
    EXPECT_NE(folded.find(zone), std::string::npos) << zone;
  }
  // Profiling must observe, never steer: the run's figures are identical
  // with and without a live profiler.
  const exp::RunResult with = [&spec] {
    Profiler p;
    const Profiler::ThreadScope scope(&p);
    return exp::RunScenario(spec);
  }();
  const exp::RunResult without = exp::RunScenario(spec);
  EXPECT_EQ(exp::ResultSignature(with), exp::ResultSignature(without));
#endif
}

}  // namespace
}  // namespace osumac::obs
