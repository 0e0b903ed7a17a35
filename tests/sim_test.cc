// Unit tests for the discrete-event simulation engine.
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "mac/cell.h"
#include "mac/mac_policy.h"
#include "mac/policy_cell.h"
#include "sim/simulator.h"

namespace osumac::sim {
namespace {

static_assert(std::is_trivially_copyable_v<Event>,
              "the agenda is plain data: no closure, no owning pointer");

/// Records every event it receives, also into `log` if set; `on_fire` (if
/// set) runs after recording.
class Recorder final : public EventTarget {
 public:
  explicit Recorder(Simulator& sim) : sim_(sim), id_(sim.AddTarget(this)) {}

  std::int32_t id() const { return id_; }
  const std::vector<Event>& fired() const { return fired_; }
  std::vector<std::int32_t> indices() const {
    std::vector<std::int32_t> out;
    for (const Event& e : fired_) out.push_back(e.index);
    return out;
  }
  void ScheduleAt(Tick when, std::int32_t index) { sim_.ScheduleAt(when, id_, 0, index); }

  std::vector<std::int32_t>* log = nullptr;
  void (*on_fire)(Recorder&, const Event&) = nullptr;

 private:
  void Fire(const Event& event) override {
    fired_.push_back(event);
    if (log != nullptr) log->push_back(event.index);
    if (on_fire != nullptr) on_fire(*this, event);
  }

  Simulator& sim_;
  std::int32_t id_;
  std::vector<Event> fired_;
};

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  Recorder r(sim);
  r.ScheduleAt(30, 3);
  r.ScheduleAt(10, 1);
  r.ScheduleAt(20, 2);
  sim.RunUntil(30);
  EXPECT_EQ(r.indices(), (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(r.fired().back().when, 30);
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SimultaneousEventsRunFifo) {
  // Same-tick order is scheduling order, across targets too.
  Simulator sim;
  Recorder a(sim);
  Recorder b(sim);
  std::vector<std::int32_t> order;
  a.log = &order;
  b.log = &order;
  for (int i = 0; i < 10; ++i) (i % 2 == 0 ? a : b).ScheduleAt(5, i);
  sim.RunUntil(5);
  EXPECT_EQ(order, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(a.indices(), (std::vector<std::int32_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(b.indices(), (std::vector<std::int32_t>{1, 3, 5, 7, 9}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  Recorder r(sim);
  r.on_fire = [](Recorder& self, const Event& e) {
    if (e.index < 4) self.ScheduleAt(e.when + 10, e.index + 1);
  };
  r.ScheduleAt(0, 0);
  sim.RunUntil(1000);
  EXPECT_EQ(r.indices(), (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.fired().back().when, 40);
}

TEST(SimulatorTest, HandlerSchedulingAtTheCurrentTickRunsInTheSameRun) {
  Simulator sim;
  Recorder r(sim);
  r.on_fire = [](Recorder& self, const Event& e) {
    if (e.index == 0) self.ScheduleAt(e.when, 2);  // behind the pending 1
  };
  r.ScheduleAt(7, 0);
  r.ScheduleAt(7, 1);
  sim.RunUntil(7);
  EXPECT_EQ(r.indices(), (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 7);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  Recorder r(sim);
  for (Tick t : {10, 20, 30, 40}) r.ScheduleAt(t, static_cast<std::int32_t>(t));
  sim.RunUntil(20);
  EXPECT_EQ(r.indices(), (std::vector<std::int32_t>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  sim.RunUntil(25);
  EXPECT_EQ(sim.now(), 25) << "clock advances to the horizon";
  sim.RunUntil(100);
  EXPECT_EQ(r.fired().size(), 4u);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, RunUntilRunsEachEventOnce) {
  Simulator sim;
  Recorder r(sim);
  sim.RunUntil(0);
  EXPECT_EQ(sim.events_executed(), 0u);
  r.ScheduleAt(5, 1);
  sim.RunUntil(5);
  sim.RunUntil(5);
  EXPECT_EQ(r.fired().size(), 1u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, PendingAndExecutedCounts) {
  Simulator sim;
  Recorder r(sim);
  r.ScheduleAt(1, 0);
  r.ScheduleAt(2, 0);
  r.ScheduleAt(3, 0);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.RunUntil(2);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.events_executed(), 2u);
  sim.RunUntil(3);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, RemovedTargetEventsAreCountedNoOps) {
  Simulator sim;
  Recorder kept(sim);
  std::int32_t gone_id = 0;
  {
    Recorder gone(sim);
    gone_id = gone.id();
    gone.ScheduleAt(5, 0);
    gone.ScheduleAt(6, 0);
    sim.RemoveTarget(gone_id);
  }
  kept.ScheduleAt(5, 1);
  Recorder later(sim);
  EXPECT_NE(later.id(), gone_id) << "target ids are never reused";
  sim.RunUntil(10);
  EXPECT_EQ(kept.indices(), (std::vector<std::int32_t>{1}));
  EXPECT_TRUE(later.fired().empty());
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  Recorder r(sim);
  for (int i = 0; i < 10000; ++i) {
    r.ScheduleAt((i * 7919) % 1000, i);  // scattered times
  }
  sim.RunUntil(1000);
  ASSERT_EQ(r.fired().size(), 10000u);
  for (std::size_t i = 1; i < r.fired().size(); ++i) {
    const Event& a = r.fired()[i - 1];
    const Event& b = r.fired()[i];
    EXPECT_TRUE(a.when < b.when || (a.when == b.when && a.seq < b.seq)) << i;
  }
  EXPECT_EQ(sim.events_executed(), 10000u);
}

// --- golden: the MAC drivers' agenda -----------------------------------------

struct AgendaTotals {
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  std::uint64_t chain = 0;
};

/// 60 cycles (10 registration + 10 warm-up + 40 journaled) of one tenant
/// under uplink traffic, plus downlink traffic for OSU.
AgendaTotals RunTenant(const std::string& mac) {
  exp::ScenarioSpec spec;
  spec.mac_policy = mac;
  spec.registration_cycles = 10;
  spec.warmup_cycles = 10;
  spec.measure_cycles = 40;
  spec.workload.rho = 0.8;
  if (mac == "osu") spec.workload.downlink_rho = 0.4;
  spec.journal_every = 1;
  exp::ScenarioRun run(spec);
  const exp::RunResult result = run.Execute();
  const Simulator& sim = mac == "osu" ? run.cell().simulator()
                                      : run.policy_cell()->simulator();
  return {sim.events_executed(), sim.pending_events(),
          result.journal->cells().front()->chain()};
}

TEST(SimulatorTest, MacDriverAgendaGolden) {
  // Recorded with the closure-queue engine: no event with an effect may be
  // merged, dropped or reordered (the chain head covers every journaled
  // cycle's state).  The chain heads were re-recorded for the
  // osumac-journal-v2 digests (keyed-sum SLO buckets and ledger fold).
  // OSU's event counts were re-recorded when forward slots without a packet
  // stopped getting an event (3515 -> 2104 executed; 22 -> 21 pending, as
  // the last cycle's slot 36 carries no packet); its chain did not move.
  const AgendaTotals osu = RunTenant("osu");
  EXPECT_EQ(osu.executed, 2104u);
  EXPECT_EQ(osu.pending, 21u);
  EXPECT_EQ(osu.chain, 0x3b4ef08b097fd1c0ull);
  const AgendaTotals rqma = RunTenant("rqma");
  EXPECT_EQ(rqma.executed, 620u);
  EXPECT_EQ(rqma.pending, 12u);
  EXPECT_EQ(rqma.chain, 0x630b1f8dbc544f31ull);
  // The only tenant with a second carrier: pins the carrier >= 1 slot path.
  const AgendaTotals pca = RunTenant("pca");
  EXPECT_EQ(pca.executed, 612u);
  EXPECT_EQ(pca.pending, 11u);
  EXPECT_EQ(pca.chain, 0x4a662ccfda478a17ull);
}

TEST(SimulatorTest, ZeroCycleRunDoesNotBootstrapTwice) {
  // RunCycles(0) must not leave a cycle-0 start behind for the next call
  // to duplicate: one cycle chain, whatever the call pattern.
  mac::Cell cell(mac::CellConfig{});
  cell.AddNode(/*wants_gps=*/false);
  cell.RunCycles(0);
  cell.RunCycles(10);
  EXPECT_EQ(cell.metrics().cycles, 10);
  EXPECT_EQ(cell.current_cycle(), 9);

  mac::PolicyCell policy(mac::CellConfig{}, mac::MakeMacPolicy("rqma"), 1);
  policy.AddNode(/*wants_gps=*/false);
  policy.RunCycles(0);
  policy.RunCycles(10);
  EXPECT_EQ(policy.metrics().cycles, 10);
  EXPECT_EQ(policy.current_cycle(), 9);
}

}  // namespace
}  // namespace osumac::sim
