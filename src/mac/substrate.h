// The protocol-agnostic chassis of a simulated cell.
//
// CellSubstrate owns everything a cell-level MAC driver needs that is *not*
// MAC policy: the discrete-event simulator and notification-cycle clock, the
// shared simulation Rng, the per-node forward/reverse error models (each on
// its own seed stream, derived from the cell seed and node index), the
// collision-detecting reverse channel, the RS codecs and the allocation-free
// receive scratch, plus the always-on accounting (CellMetrics, SloMonitor)
// and the event-trace attachment point.
//
// It also holds what both drivers would otherwise repeat: the one burst
// transmit (TransmitBurst), reverse-slot resolution on any carrier
// (ResolveReverseSlot), the GPS delivery-gap tracker and the journal-record
// builder (AppendJournalRecord).
//
// Two drivers are built on it (by implementation inheritance, so the hot
// paths read exactly as they did before the split):
//
//   mac::Cell        — the full OSU-MAC air interface (control fields,
//                      subscriber state machines, in-band registration)
//                      around the paper's BaseStation.
//   mac::PolicyCell  — the generic grid driver for pluggable MacPolicy
//                      tenants (RQMA, PCA, ...), see mac/policy_cell.h.
//
// Both implement CellDriver, the narrow contract the scenario engine
// (exp::ScenarioRun) runs every tenant through.
//
// The layering contract (enforced by the `policy-layer-boundary` lint rule,
// docs/MAC_POLICIES.md): the substrate never includes policy headers, and
// policy implementations never reach below the substrate into phy/ or up
// into exp/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "fec/reed_solomon.h"
#include "mac/config.h"
#include "mac/cycle_layout.h"
#include "mac/ids.h"
#include "obs/event_trace.h"
#include "obs/run_journal.h"
#include "obs/slo.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "sim/simulator.h"

namespace osumac::mac {

/// Channel model selection for a Cell.
struct ChannelModelConfig {
  enum class Kind { kPerfect, kUniform, kGilbertElliott };
  Kind kind = Kind::kPerfect;
  double symbol_error_prob = 0.0;            ///< for kUniform
  phy::GilbertElliottModel::Params ge{};     ///< for kGilbertElliott

  /// Builds the model.  `seed` seeds the model's private SplitMix64 stream
  /// (phy/error_model.h), so the shared simulation Rng's draw order never
  /// depends on the channel; a perfect channel ignores it.
  std::unique_ptr<phy::SymbolErrorModel> Make(std::uint64_t seed = 0) const;
};

struct CellConfig {
  MacConfig mac;
  ChannelModelConfig forward;  ///< base station -> mobile paths
  ChannelModelConfig reverse;  ///< mobile -> base station paths
  /// Receivers feed erasure side information (fade indications) to the RS
  /// decoder, enabling errors-and-erasures decoding — up to 16 flagged
  /// symbols per codeword instead of 8 unknown errors (extension; cf. the
  /// paper's burst-erasure reference [2]).  Only the Gilbert-Elliott model
  /// produces side information.
  bool erasure_side_information = false;
  std::uint64_t seed = 1;
};

/// Cell-level aggregate metrics (across the whole run since last reset).
struct CellMetrics {
  std::int64_t cycles = 0;
  std::int64_t capacity_bytes = 0;        ///< d * 44 bytes summed per cycle
  std::int64_t unique_payload_bytes = 0;  ///< decoded, de-duplicated
  std::int64_t offered_bytes = 0;         ///< enqueued message bytes
  std::int64_t uplink_messages_offered = 0;
  std::int64_t forward_packets_lost = 0;  ///< sent but missed by the mobile
  std::map<UserId, std::int64_t> per_user_bytes;  ///< for Jain fairness
  SampleSet downlink_message_delay_cycles;

  /// Reverse-link utilization as the paper defines it: data bytes carried /
  /// data bytes transportable in the cycle's data slots.
  double Utilization() const {
    return capacity_bytes > 0 ? static_cast<double>(unique_payload_bytes) /
                                    static_cast<double>(capacity_bytes)
                              : 0.0;
  }
};

/// What the scenario engine needs from a single-cell driver, whatever MAC
/// tenant it hosts: populate, offer uplink traffic, run, measure.  Cell and
/// PolicyCell implement it as final classes; anything tenant-specific
/// (downlink, churn, counters) is reached through the concrete type.
class CellDriver {
 public:
  virtual ~CellDriver() = default;

  /// Adds a node and brings it up: an OSU subscriber powers on and
  /// registers in-band; a policy node registers out-of-band at once.
  /// Returns the node index.
  virtual int AddNode(bool wants_gps) = 0;
  /// Queues an uplink message at `node` now; returns false on buffer drop.
  virtual bool SendUplinkMessage(int node, int bytes) = 0;
  /// Signs `node` off; the tenant releases its resources.
  virtual void SignOff(int node) = 0;

  /// Runs `cycles` (>= 0) further notification cycles.
  virtual void RunCycles(int cycles) = 0;
  /// Zeroes all statistics; call after a warm-up period.
  virtual void ResetStats() = 0;
  /// Attaches a run-journal slice (nullptr detaches): one digest record per
  /// journaled cycle, taken right after the cycle's plan is fixed.
  virtual void AttachJournal(obs::CellJournal* journal) = 0;

  virtual sim::Simulator& simulator() = 0;
  virtual const sim::Simulator& simulator() const = 0;
  virtual const CellMetrics& metrics() const = 0;
  virtual obs::SloMonitor& slo() = 0;
  virtual const obs::SloMonitor& slo() const = 0;
};

/// Protocol-agnostic cell state and helpers; see the file comment.  Its one
/// virtual is the driver's sim::EventTarget::Fire, which receives every
/// event scheduled through ScheduleAt.  Otherwise drivers inherit the
/// members and helpers directly so the pre-split code (and its byte-exact
/// behavior) carries over unchanged.
class CellSubstrate : private sim::EventTarget {
 public:
  explicit CellSubstrate(const CellConfig& config);

 protected:
  ~CellSubstrate() = default;

  /// Event kind of a cycle start, the bootstrap included; drivers number
  /// their other kinds from 1.  The cycle is recomputed from the tick.
  static constexpr std::int32_t kStartCycle = 0;

  /// Schedules (kind, index) for the driver's Fire at `when`.
  void ScheduleAt(Tick when, std::int32_t kind, std::int32_t index = 0) {
    sim_.ScheduleAt(when, self_, kind, index);
  }
  /// The absolute interval of a slot with layout interval `rel` ending at `end`.
  static Interval EndingAt(Tick end, Interval rel) { return {end - rel.length(), end}; }

  /// Appends node `node`'s forward/reverse error models and its fixed GPS
  /// report phase within a cycle.  Fast models get per-node, per-direction
  /// seeds for their private SplitMix64 streams; the +100 offset keeps them
  /// clear of the exp::SeedStream derivations (which use small multipliers
  /// of the same gamma).  The phase consumes one Rng draw if and only if
  /// `wants_gps` (draw-order discipline: adding a data-only node must not
  /// perturb the stream).
  void AddNodeState(int node, bool wants_gps);

  /// Advances the cycle clock by `cycles` (>= 0) notification cycles,
  /// scheduling the cycle-0 start on the first call that runs any.
  void RunCyclesOn(int cycles);

  /// Puts one burst on `channel`: `info` RS-encoded with `code` as its only
  /// codeword, sent by node `sender` over `on_air`, straight into the
  /// channel's recycled codeword storage.  The one reverse-link transmit
  /// path of both drivers.
  static void TransmitBurst(phy::ReverseChannel& channel, int sender, Interval on_air,
                            const fec::ReedSolomon& code,
                            std::span<const fec::GfElem> info, std::uint64_t tag = 0);

  /// Resolves one reverse slot of `channel` (the substrate's reverse_channel_
  /// or a driver's extra carrier) at the base-station receiver through each
  /// sender's uplink path, reusing the shared scratch (zero steady-state
  /// allocation).  The result stays valid until the next resolution.
  const phy::SlotReception& ResolveReverseSlot(phy::ReverseChannel& channel, Interval abs,
                                               const fec::ReedSolomon& code);

  /// Feeds the GPS inter-service gap: a report from `node` decoded at `at`
  /// scores the time since that node's previous decoded report.
  void ObserveGpsDelivery(int node, Tick at);
  /// Ends `node`'s GPS service history at sign-off: a gap spanning the off
  /// period is not an SLO violation.
  void ForgetGpsDelivery(int node) { last_gps_delivery_.erase(node); }
  /// Zeroes the substrate's statistics (CellMetrics, the SLO monitor) and
  /// restarts the GPS gap tracker: a gap whose left endpoint predates the
  /// measurement window would otherwise surface as a spurious first miss.
  void ResetSubstrateStats();

  /// Credits a decoded, de-duplicated uplink payload to `src`: the shared
  /// accounting path behind utilization and Jain fairness (the per-user
  /// byte ledger every driver must feed).
  void RecordUplinkDelivery(UserId src, std::int64_t payload_bytes);

  /// Appends cycle `n`'s record to the attached journal from the driver's
  /// own slot-grid, queue and counter hashes, filling the shared `slo` and
  /// `events` components.  Allocation-free and clock-free, like every
  /// journal hash hook (`journal-hook-discipline` lint rule).
  void AppendJournalRecord(std::int64_t n, std::uint64_t slot_grid, std::uint64_t queues,
                           std::uint64_t counters);

  /// Journal hash of the substrate's always-on aggregates (CellMetrics
  /// scalars plus the per-user byte ledger) — folded into the `counters`
  /// component by both drivers.
  std::uint64_t JournalHashMetrics() const;

  phy::SymbolErrorModel& ForwardModelFor(int node) {
    return *forward_models_[static_cast<std::size_t>(node)];
  }
  phy::SymbolErrorModel& ReverseModelFor(int node) {
    return *reverse_models_[static_cast<std::size_t>(node)];
  }

  CellConfig config_;
  sim::Simulator sim_;
  const std::int32_t self_;  ///< this driver's target id on sim_
  Rng rng_;
  std::vector<std::unique_ptr<phy::SymbolErrorModel>> forward_models_;
  std::vector<std::unique_ptr<phy::SymbolErrorModel>> reverse_models_;
  std::vector<Tick> gps_phase_;  ///< per-node GPS report phase within a cycle

  phy::ReverseChannel reverse_channel_;
  const fec::ReedSolomon& data_code_;  ///< RS(64,48)
  const fec::ReedSolomon& gps_code_;   ///< RS(32,9)

  // Slot-resolution scratch, reused across every slot/CF delivery so the
  // steady-state receive path performs no heap allocation (buffers reach
  // their high-water capacity in the first cycles and stay there).
  phy::ChannelScratch channel_scratch_;
  phy::SlotReception slot_reception_;
  std::vector<std::vector<fec::GfElem>> cf_codewords_;
  std::vector<std::vector<fec::GfElem>> cf_decoded_;
  std::vector<std::vector<fec::GfElem>> fwd_codewords_;
  std::vector<std::vector<fec::GfElem>> fwd_decoded_;

  std::int64_t next_cycle_ = 0;
  std::int64_t target_cycle_ = 0;
  std::uint32_t next_message_id_ = 1;

  CellMetrics metrics_;
  obs::EventTrace* trace_ = nullptr;
  /// Attached run-journal slice for this cell (null = journaling off, one
  /// branch per cycle).  Thread-confined like the rest of the substrate.
  obs::CellJournal* journal_ = nullptr;
  obs::SloMonitor slo_;

 private:
  /// Journal hash of the SLO monitor (per class: miss and near-miss
  /// counters, count, max and the histogram's running bucket digest): the
  /// `slo` component of every record, 20 mix steps whatever the bucket count.
  std::uint64_t JournalHashSlo() const;

  std::map<int, Tick> last_gps_delivery_;  ///< per node, last decoded GPS report
};

}  // namespace osumac::mac
