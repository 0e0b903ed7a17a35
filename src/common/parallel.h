// Deterministic fork/join parallelism for index-shaped work.
//
// Two entry points share one discipline — `fn(i)` must be a pure function
// of the index (no shared mutable state, no dependence on claim order or
// thread identity), which is what makes every parallel construct in this
// codebase bit-identical at any worker count:
//
//  * TaskPool: a persistent pool for callers that fan out *repeatedly* with
//    a barrier between rounds — the parallel mac::Network runs one round
//    per notification cycle, where respawning threads every cycle would
//    dominate the cycle itself.  Workers park on a condition variable
//    between rounds; Run() is a full barrier (every index completed before
//    it returns).  It propagates the first worker exception to the caller
//    and stops siblings from claiming further indices after a failure.
//
//  * ParallelForIndex(count, jobs, fn): one-shot fan-out, a single round
//    of a TaskPool sized to the work.  This is the sweep engine's
//    primitive; per-call thread spawn cost is noise against
//    whole-scenario work items.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace osumac {

/// Worker count for `jobs` requested (0 → hardware concurrency, min 1).
int ResolveParallelism(int jobs);

/// Runs `fn(i)` for every i in [0, count) across `jobs` workers (0 = one
/// per hardware core).  Blocks until every index completed; rethrows the
/// first worker exception.  `fn` must not touch shared mutable state.
void ParallelForIndex(int count, int jobs, const std::function<void(int)>& fn);

/// A persistent worker pool with barrier semantics: construct once, call
/// Run() once per round.  `threads` counts the caller — a TaskPool(8) spawns
/// seven workers and the Run() caller works the eighth share itself, so
/// TaskPool(1) is the serial loop with no threads at all.
class TaskPool {
 public:
  explicit TaskPool(int threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const { return threads_; }

  /// Runs `fn(i)` for every i in [0, count); returns after ALL indices
  /// completed (a barrier).  Rethrows the first worker exception after the
  /// round has fully drained.  Not reentrant: one Run() at a time.
  void Run(int count, const std::function<void(int)>& fn) EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  /// Claims indices from the shared cursor until the round is exhausted or
  /// a sibling failed.  Runs on workers and on the Run() caller alike.
  void RunSlice(const std::function<void(int)>& fn, int count) EXCLUDES(mu_);

  const int threads_;
  Mutex mu_;
  CondVar round_started_;  ///< workers park here between rounds
  CondVar round_done_;     ///< Run() parks here until workers drain
  std::uint64_t round_ GUARDED_BY(mu_) = 0;
  int round_count_ GUARDED_BY(mu_) = 0;
  const std::function<void(int)>* round_fn_ GUARDED_BY(mu_) = nullptr;
  int active_workers_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ GUARDED_BY(mu_);
  std::atomic<int> next_{0};       ///< next unclaimed index of this round
  std::atomic<bool> stop_{false};  ///< latched by the first failing worker
  // Owner-thread confined: written by the constructor, joined by the
  // destructor, never touched by workers or Run() — joining under mu_ would
  // deadlock against workers reacquiring it to observe shutdown_.
  std::vector<std::thread> workers_;  // lint: allow-shared-state-annotation
};

}  // namespace osumac
