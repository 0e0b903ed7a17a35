// Heap-allocation budget of the steady-state notification cycle.
//
// Every object an OSU-MAC cycle moves has a fixed size (a 48-byte
// information block, at most 9 reverse data slots, 6-bit user IDs), so a
// cycle should allocate only for state that really grows: the base
// station's duplicate ledger and the per-message bookkeeping.  This binary
// replaces the global operator new with a counting one (its own, so no
// other suite is affected) and holds an OSU cell at rho 0.8 to a budget
// over cycles 200-1200.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "mac/cell.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace osumac {
namespace {

/// Allocations per cycle the steady state may spend: the duplicate ledger
/// (one set node per delivered fragment, ~7 at rho 0.8), the uplink
/// message maps and the radio's interval deque, with headroom.
constexpr double kAllocationsPerCycleBudget = 16.0;

/// The same with downlink traffic (rho 0.3) under ARQ on a perfect
/// channel: 53.3 measured, plus the uplink case's headroom of 5.3.  The
/// per-slot forward bookkeeping is fixed-size; what remains is downlink
/// state kept per message and per user.
constexpr double kDownlinkAllocationsPerCycleBudget = 59.0;

/// Heap allocations per cycle of `spec`'s OSU cell over cycles 200-1200.
double AllocationsPerCycle(const exp::ScenarioSpec& spec) {
  exp::ScenarioRun run(spec);
  run.BuildPopulation();
  run.StartWorkloads();
  run.Warmup();
  mac::Cell& cell = run.cell();
  constexpr int kFirstCycle = 200;
  constexpr int kCycles = 1000;
  const std::int64_t done = cell.current_cycle() + 1;
  EXPECT_LE(done, kFirstCycle);
  cell.RunCycles(static_cast<int>(kFirstCycle - done));

  const std::uint64_t before = g_allocations.load();
  cell.RunCycles(kCycles);
  const std::uint64_t allocations = g_allocations.load() - before;

  const double per_cycle = static_cast<double>(allocations) / kCycles;
  std::printf("allocations per cycle over cycles %d-%d: %.2f\n", kFirstCycle,
              kFirstCycle + kCycles, per_cycle);
  EXPECT_GT(cell.metrics().unique_payload_bytes, 0) << "the cell carried no traffic";
  return per_cycle;
}

TEST(AllocBudgetTest, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_allocations.load();
  void* p = ::operator new(sizeof(int));  // a call, which cannot be elided
  const std::uint64_t after = g_allocations.load();
  ::operator delete(p);
  EXPECT_EQ(after - before, 1u) << "the replacement operator new is not in use";
}

TEST(AllocBudgetTest, OsuCellCycleStaysWithinBudget) {
  exp::ScenarioSpec spec;
  spec.workload.rho = 0.8;
  spec.seed = 1;
  EXPECT_LE(AllocationsPerCycle(spec), kAllocationsPerCycleBudget);
}

TEST(AllocBudgetTest, OsuCellCycleWithDownlinkArqStaysWithinBudget) {
  exp::ScenarioSpec spec;
  spec.workload.rho = 0.8;
  spec.workload.downlink_rho = 0.3;
  spec.mac.downlink_arq = true;
  spec.seed = 1;
  EXPECT_LE(AllocationsPerCycle(spec), kDownlinkAllocationsPerCycleBudget);
}

}  // namespace
}  // namespace osumac
