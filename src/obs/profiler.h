// Self-profiling zones: where does wall-clock go *inside* a cycle?
//
// The wall-timer registry (wallclock.h) answers whole-phase questions
// ("how long did the sweep take"); the Profiler answers attribution
// questions ("of one cycle step, how much is RS decode vs channel vs obs
// emission").  Call sites mark themselves with a RAII scoped zone:
//
//   void Cell::ResolveDataSlot(...) {
//     OSUMAC_PROFILE_ZONE("cell.slot.data");
//     ...
//   }
//
// Zones nest: entering "fec.decode" inside "cell.slot.data" grows a
// hierarchical tree keyed by the zone-name path, with per-node call counts
// and inclusive wall nanoseconds.  The tree is the *aggregate* over every
// execution — no per-event retention, O(distinct paths) memory — so a
// multi-thousand-cycle run profiles in a few KB.
//
// Threading model (the same thread-confinement discipline as the rest of
// obs, docs/STATIC_ANALYSIS.md): each Profiler instance is owned by exactly
// one thread and is NOT internally synchronized.  A zone reports to the
// *calling thread's* active profiler, installed via Profiler::ThreadScope —
// per-worker profilers never share state while running, and roll up
// afterwards through Merge(), which is deterministic in structure (name-
// keyed, std::map-ordered) and exact in counts (integer adds), so merging
// N worker trees gives the same tree at any merge order.
//
// Cost contract (gated by tools/check_perf.py like the event trace):
//   * no profiler installed (the default): one thread-local read and a
//     predicted branch per zone — "hotpath_cycle_untraced" must stay
//     within noise of "hotpath_cycle_profiled";
//   * compiled out (-DOSUMAC_PROFILER=OFF → OSUMAC_PROFILER_DISABLED):
//     OSUMAC_PROFILE_ZONE expands to nothing, and the figure sweep's
//     BENCH_sweeps.json digest is byte-identical either way (the profiler
//     observes wall time only; it can never touch simulation state or RNG
//     draw order).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

namespace osumac::obs {

/// One node of the aggregated zone tree: a zone name at one position of
/// the enclosing zone path.  `total_ns` is inclusive (child time counts);
/// exclusive ("self") time is derived at export.
struct ZoneNode {
  std::string name;
  std::int64_t count = 0;     ///< times this exact path was entered
  std::int64_t total_ns = 0;  ///< inclusive wall nanoseconds
  ZoneNode* parent = nullptr;  ///< not owned; null at the root
  // std::map, not unordered: exports iterate children and their order
  // reaches artifacts (rule ordered-iteration, tools/osumac_lint).
  std::map<std::string, std::unique_ptr<ZoneNode>> children;
  /// The child entered last and the zone literal it was entered by: a
  /// pointer compare short-cuts the map lookup when a zone re-enters from
  /// the same call site, the common case in a cycle loop.
  const char* last_key = nullptr;
  ZoneNode* last_child = nullptr;

  /// Inclusive time minus the children's inclusive time, clamped at 0.
  std::int64_t self_ns() const;
};

/// Aggregating zone profiler.  Instances are thread-confined; install one
/// as the calling thread's active profiler with ThreadScope and every
/// OSUMAC_PROFILE_ZONE executed by that thread reports into it.
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The calling thread's active profiler (null = zones are no-ops).
  static Profiler* Current();

  /// RAII installer: makes `profiler` the calling thread's active profiler
  /// for the scope's lifetime, restoring the previous one (if any) on
  /// exit.  Scopes nest; passing null silences zones for the scope.
  class ThreadScope {
   public:
    explicit ThreadScope(Profiler* profiler);
    ~ThreadScope();
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    Profiler* previous_;
  };

  // --- zone bookkeeping (called by ProfileZone) ----------------------------

  /// Descends into the child zone `name` of the current node (creating it
  /// on first use).  `name` must have static storage duration (zone macros
  /// pass string literals): each node caches its last child by the
  /// pointer, so a reused buffer holding new text would hit a stale entry.
  void EnterZone(const char* name);
  /// Credits `elapsed_ns` to the current node and pops back to its parent.
  void ExitZone(std::int64_t elapsed_ns);

  // --- inspection ----------------------------------------------------------

  const ZoneNode& root() const { return *root_; }
  bool empty() const { return root_->children.empty(); }
  /// Sum of the top-level zones' inclusive time.
  std::int64_t total_ns() const;
  /// Depth of the currently open zone stack (0 = at the root; exports
  /// require a quiescent profiler, i.e. depth 0).
  int open_depth() const;

  /// Adds `other`'s zone tree into this one, path by path: counts and
  /// nanoseconds add (exact integer arithmetic), unknown paths are
  /// created.  Merging per-thread or per-cell profilers in ANY order
  /// yields the identical tree — pinned by tests/profiler_test.cc.
  /// `other` must be quiescent (no open zones).
  void Merge(const Profiler& other);

  /// Discards the tree (open zones must be closed first).
  void Clear();

 private:
  std::unique_ptr<ZoneNode> root_;
  ZoneNode* current_;  ///< deepest open zone, or root_ when none open
};

// --- export ----------------------------------------------------------------

/// speedscope JSON (https://www.speedscope.app/file-format-schema.json):
/// one "evented" profile in nanoseconds, synthesized by walking the
/// aggregated tree depth-first (children in name order, each node one
/// open/close pair at its cumulative offset).  Schema-checked by
/// tools/check_profile.py in CI.
void WriteSpeedscope(std::ostream& out, const Profiler& profiler,
                     const std::string& name);

/// Brendan-Gregg collapsed stacks: one "root;child;leaf <self_ns>" line
/// per node with nonzero self time, sorted by path — ready for any
/// flamegraph tool.
void WriteCollapsed(std::ostream& out, const Profiler& profiler);

// --- the zone macro --------------------------------------------------------

/// RAII scoped zone body.  Reads the thread-local active profiler once at
/// construction; when none is installed the constructor and destructor are
/// a load and a predicted branch.
class ProfileZone {
 public:
  explicit ProfileZone(const char* name) : profiler_(Profiler::Current()) {
    if (profiler_ == nullptr) return;
    profiler_->EnterZone(name);
    start_ = std::chrono::steady_clock::now();
  }
  ~ProfileZone() {
    if (profiler_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profiler_->ExitZone(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  ProfileZone(const ProfileZone&) = delete;
  ProfileZone& operator=(const ProfileZone&) = delete;

 private:
  Profiler* profiler_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace osumac::obs

#define OSUMAC_PROFILE_CONCAT_INNER(a, b) a##b
#define OSUMAC_PROFILE_CONCAT(a, b) OSUMAC_PROFILE_CONCAT_INNER(a, b)

#if defined(OSUMAC_PROFILER_DISABLED)
/// Zones compiled out (-DOSUMAC_PROFILER=OFF): no object, no TLS read.
#define OSUMAC_PROFILE_ZONE(name) \
  do {                            \
  } while (false)
#else
/// Marks the enclosing scope as profiling zone `name` (a string literal).
#define OSUMAC_PROFILE_ZONE(name)                 \
  const ::osumac::obs::ProfileZone OSUMAC_PROFILE_CONCAT( \
      osumac_profile_zone_, __LINE__)(name)
#endif
