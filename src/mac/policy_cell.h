// The generic cell driver for pluggable MacPolicy tenants.
//
// PolicyCell hosts one MacPolicy on the CellSubstrate: every cycle it
// builds the policy's node views, asks for a PolicyCyclePlan, turns the
// planned slots into really-RS-coded bursts on the (possibly multi-carrier)
// reverse channel, resolves each slot through the collision/error models,
// and feeds the outcome back to the policy and the shared accounting
// (CellMetrics, SloMonitor, per-user byte ledger).
//
// Compared with mac::Cell (the OSU driver) the signalling is out-of-band:
// nodes register instantly with driver-assigned user IDs and the policy's
// plan *is* the schedule — there are no control fields to decode and no
// subscriber state machines.  What stays real is everything below the
// policy seam: RS(64,48)/RS(32,9) coding, per-path error models, collision
// detection, the cycle clock, and the SLO budgets — so comparative numbers
// against OSU are apples-to-apples at the channel level.
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "mac/counter_field.h"
#include "mac/mac_policy.h"
#include "mac/substrate.h"

namespace osumac::mac {

class PolicyCell;

/// Observer of the generic driver's audit points (mirrors CellObserver for
/// the OSU driver); the PolicyAuditor in src/analysis builds on this.
class PolicyCellObserver {
 public:
  virtual ~PolicyCellObserver() = default;

  /// Cycle `cycle` has been planned and every planned burst is on the air.
  virtual void OnCyclePlanned(const PolicyCell& cell, const PolicyCyclePlan& plan,
                              std::int64_t cycle, Tick now) = 0;

  /// One planned slot has been resolved by the channel.
  virtual void OnSlotResolved(const PolicyCell& cell, const PolicySlotPlan& plan,
                              const PolicySlotResult& result, Interval abs,
                              Tick now) = 0;
};

/// Driver-side counters for a policy run: the policy-agnostic subset of
/// what BsCounters records for OSU, so comparative sweeps report the same
/// headline quantities.
struct PolicyCounters {
  std::int64_t data_packets_received = 0;
  std::int64_t gps_packets_received = 0;
  std::int64_t request_packets_received = 0;  ///< decoded access requests
  std::int64_t collisions = 0;
  std::int64_t decode_failures = 0;
  std::int64_t idle_slots = 0;
  std::int64_t granted_slots = 0;             ///< owned slots planned
  std::int64_t contention_slots = 0;          ///< open slots planned
  std::int64_t payload_bytes_received = 0;
  std::int64_t deadline_drops = 0;            ///< fragments dropped by policy
  std::int64_t messages_completed = 0;
};

/// Every PolicyCounters field, in declaration order (row i is keyed by
/// DigestKey(i) in the journal's ledger fold, KeyedLedgerSum).
inline constexpr CounterField<PolicyCounters> kPolicyCounterFields[] = {
    {"data_packets_received", &PolicyCounters::data_packets_received},
    {"gps_packets_received", &PolicyCounters::gps_packets_received},
    {"request_packets_received", &PolicyCounters::request_packets_received},
    {"collisions", &PolicyCounters::collisions},
    {"decode_failures", &PolicyCounters::decode_failures},
    {"idle_slots", &PolicyCounters::idle_slots},
    {"granted_slots", &PolicyCounters::granted_slots},
    {"contention_slots", &PolicyCounters::contention_slots},
    {"payload_bytes_received", &PolicyCounters::payload_bytes_received},
    {"deadline_drops", &PolicyCounters::deadline_drops},
    {"messages_completed", &PolicyCounters::messages_completed},
};
static_assert(std::size(kPolicyCounterFields) * sizeof(std::int64_t) ==
                  sizeof(PolicyCounters),
              "every PolicyCounters field needs a row in kPolicyCounterFields");

class PolicyCell final : public CellDriver, private CellSubstrate {
 public:
  /// `policy` must be non-null (mac::MakeMacPolicy builds the grid
  /// tenants; the OSU protocol runs on mac::Cell).
  PolicyCell(const CellConfig& config, std::unique_ptr<MacPolicy> policy,
             std::uint64_t policy_seed);

  // --- population -----------------------------------------------------------

  /// Adds a node and registers it with the policy immediately (out-of-band
  /// signalling: uid == node index).  Returns the node index.
  int AddNode(bool wants_gps) override;
  /// Signs a node off: the policy releases its resources; queued traffic
  /// is discarded.
  void SignOff(int node) override;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  bool is_gps(int node) const { return nodes_[static_cast<std::size_t>(node)].gps; }
  UserId uid_of(int node) const { return nodes_[static_cast<std::size_t>(node)].uid; }
  int backlog_packets(int node) const {
    return static_cast<int>(nodes_[static_cast<std::size_t>(node)].queue.size());
  }

  // --- traffic ---------------------------------------------------------------

  /// Queues an uplink message at `node` now; returns false on buffer drop.
  bool SendUplinkMessage(int node, int bytes) override;

  // --- running ----------------------------------------------------------------

  /// Runs `cycles` (>= 0) further notification cycles.
  void RunCycles(int cycles) override { RunCyclesOn(cycles); }
  /// Zeroes all statistics; call after a warm-up period.
  void ResetStats() override;

  std::int64_t current_cycle() const { return next_cycle_ - 1; }

  // --- observation -----------------------------------------------------------

  void AddObserver(PolicyCellObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  void RemoveObserver(PolicyCellObserver* observer) {
    std::erase(observers_, observer);
  }

  /// Attaches a run-journal slice (nullptr detaches), mirroring
  /// mac::Cell::AttachJournal: one digest record per journaled cycle, taken
  /// right after the policy's plan is on the air.
  void AttachJournal(obs::CellJournal* journal) override { journal_ = journal; }
  obs::CellJournal* journal() const { return journal_; }

  MacPolicy& policy() { return *policy_; }
  const MacPolicy& policy() const { return *policy_; }
  sim::Simulator& simulator() override { return sim_; }
  const sim::Simulator& simulator() const override { return sim_; }
  const CellConfig& config() const { return config_; }
  const CellMetrics& metrics() const override { return metrics_; }
  const PolicyCounters& counters() const { return counters_; }
  obs::SloMonitor& slo() override { return slo_; }
  const obs::SloMonitor& slo() const override { return slo_; }
  /// Decoded-fragment delay samples, in cycles (arrival -> slot end).
  const SampleSet& packet_delay_cycles() const { return packet_delay_cycles_; }
  /// Completed-message delay samples, in cycles.
  const SampleSet& message_delay_cycles() const { return message_delay_cycles_; }
  /// Carriers provisioned so far (extra carriers appear on first use, so
  /// this can trail the plan's carrier count within a cycle).
  int carrier_count() const { return 1 + static_cast<int>(extra_carriers_.size()); }
  /// Carrier `carrier`'s reverse channel (0 = the substrate's), for
  /// auditors that inspect pending bursts; carrier < carrier_count().
  const phy::ReverseChannel& carrier_channel(int carrier) const;

 private:
  struct Fragment {
    std::uint32_t message_id = 0;
    std::uint8_t frag_index = 0;
    std::uint8_t frag_count = 0;
    std::uint16_t payload_bytes = 0;
    Tick enqueue = 0;
  };
  struct Node {
    UserId uid = kNoUser;
    bool gps = false;
    bool active = false;
    std::deque<Fragment> queue;
    /// Ready tick of the freshest GPS fix already delivered (dedup guard).
    Tick last_delivered_fix = -1;
  };
  /// What one planned burst carried (looked up by CodedBurst::tag when the
  /// slot resolves).
  struct TxRecord {
    int node = -1;
    std::int64_t cycle = 0;  ///< planning cycle, for pruning lost-burst records
    bool gps_report = false;
    bool request = false;    ///< an access request, not a data fragment
    Fragment fragment;       ///< valid unless gps_report/request
    Tick fix_ready = -1;     ///< valid when gps_report
  };

  /// Event kinds (sim::Event::kind): a slot of plan_ or, when it ends after
  /// the next cycle start, of prev_plan_; `index` is its place in `slots`.
  enum SimEvent : std::int32_t { kSlot = 1, kDeferredSlot };

  void Fire(const sim::Event& event) override;
  void StartCycle(std::int64_t n);
  /// Builds and appends the journal record for cycle `n` (journal hash
  /// hook: allocation-free, clock-free — `journal-hook-discipline` lint).
  void JournalCycle(std::int64_t n);
  void ResolveSlot(const PolicySlotPlan& s, Interval abs);
  void TransmitPlanned(std::int64_t n, Tick T);
  /// Ready tick of the freshest fix node has at time `t` (one fix per
  /// cycle at the node's fixed phase, like the OSU driver).
  Tick FreshestFixAt(int node, Tick t) const;
  phy::ReverseChannel& Carrier(int carrier);
  /// Absolute interval of `plan`'s slot `s` in the cycle starting at `T`.
  static Interval SlotInterval(const PolicyCyclePlan& plan, const PolicySlotPlan& s,
                               Tick T);

  std::unique_ptr<MacPolicy> policy_;
  /// The policy's private seed stream (exp::SeedStream::kMacPolicy): plan
  /// randomness never perturbs the substrate's channel stream.
  Rng policy_rng_;
  std::vector<Node> nodes_;
  /// Carriers beyond the substrate's reverse channel (index 1..N-1).
  std::vector<std::unique_ptr<phy::ReverseChannel>> extra_carriers_;
  PolicyCyclePlan plan_;
  /// The previous cycle's plan: its last data slot resolves in this cycle.
  PolicyCyclePlan prev_plan_;
  std::map<std::uint64_t, TxRecord> tx_records_;
  std::uint64_t next_tag_ = 1;
  /// Per-message completion tracking: remaining fragments + enqueue tick.
  struct MessageTrack {
    int remaining = 0;
    Tick enqueue = 0;
  };
  std::map<std::uint32_t, MessageTrack> open_messages_;

  PolicyCounters counters_;
  SampleSet packet_delay_cycles_;
  SampleSet message_delay_cycles_;
  std::vector<PolicyCellObserver*> observers_;
};

}  // namespace osumac::mac
