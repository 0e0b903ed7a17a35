// One simulated cell: base station + mobile subscribers + both channels,
// driven cycle by cycle on the discrete-event engine.
//
// The Cell is the OSU-MAC driver over the protocol-agnostic CellSubstrate
// (mac/substrate.h): the substrate owns the clock, channels, FEC and
// accounting; the Cell owns the BaseStation plus the subscriber state
// machines that make OSU's in-band signalling work.  Other MAC policies run
// on the same substrate through the generic mac::PolicyCell driver; both
// implement the CellDriver contract the scenario engine runs.
//
// The Cell reproduces the full air interface: control fields and packets are
// really RS-encoded, passed through per-path error models, decoded, and
// parsed; the reverse channel detects collisions; the half-duplex radio
// model verifies that nothing is scheduled against the 20 ms switch guard.
//
// Event timeline of cycle n (T = n * kCycleTicks):
//   T            collect results, plan cycle (PlanCycle -> CF1 content)
//   T + 13500    CF1 delivered to every CF1 listener
//   T + 10230/11850  previous cycle's last reverse data slot resolves
//   T + 20250    CF2 content finalized (includes the late ACK/grant)
//   T + 29250    CF2 delivered to the CF2 listener
//   slot ends    forward packets delivered; reverse GPS/data slots resolved
//   T + kCycleTicks   next cycle
//
// A forward slot has an event only if it carries a packet: StartCycle
// schedules the slots CF1 assigns, and the CF2 event those CF2 adds for its
// listener.  StartCycle reserves one sequence number per forward slot, and
// each slot's event takes its own, so every event fires in exactly the
// order an agenda holding all 37 slot events gives, among same-tick events
// too: slot 36 ends on the next cycle's start tick and still fires before
// it, and a traffic arrival scheduled after StartCycle for a slot's end
// tick still fires after the slot.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "fec/reed_solomon.h"
#include "mac/base_station.h"
#include "mac/cell_observer.h"
#include "mac/config.h"
#include "mac/subscriber.h"
#include "mac/substrate.h"
#include "obs/event_trace.h"
#include "obs/slo.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "sim/simulator.h"

namespace osumac::mac {

class Cell final : public CellDriver, private CellSubstrate {
 public:
  explicit Cell(const CellConfig& config);

  // --- population -----------------------------------------------------------

  /// Adds a subscriber (initially powered off); returns its node index.
  /// `ein` overrides the auto-assigned equipment number (used by Network
  /// for globally unique EINs and handoff).
  int AddSubscriber(bool wants_gps, std::optional<Ein> ein = std::nullopt);
  /// Powers a subscriber on; it syncs and registers via contention.
  void PowerOn(int node);
  /// AddSubscriber + PowerOn.
  int AddNode(bool wants_gps) override {
    const int node = AddSubscriber(wants_gps);
    PowerOn(node);
    return node;
  }
  /// Signs a subscriber off (the base station releases its resources — the
  /// paper's "sign-off"; for GPS users this triggers rules R1-R3).
  void SignOff(int node) override;
  /// Replaces `node`'s downlink error model.  Fault injection: a model
  /// that turns a word into a different valid codeword reproduces an RS
  /// miscorrection, a frame that decodes cleanly but carries garbage.
  void SetForwardModel(int node, std::unique_ptr<phy::SymbolErrorModel> model);

  MobileSubscriber& subscriber(int node) { return *subscribers_[static_cast<std::size_t>(node)]; }
  const MobileSubscriber& subscriber(int node) const {
    return *subscribers_[static_cast<std::size_t>(node)];
  }
  int subscriber_count() const { return static_cast<int>(subscribers_.size()); }
  BaseStation& base_station() { return bs_; }
  const BaseStation& base_station() const { return bs_; }
  sim::Simulator& simulator() override { return sim_; }
  const sim::Simulator& simulator() const override { return sim_; }
  const CellConfig& config() const { return config_; }
  const phy::ReverseChannel& reverse_channel() const { return reverse_channel_; }

  /// Appends an observer notified at the per-cycle audit points, after any
  /// already attached (notification order = attach order).
  void AddObserver(CellObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  /// Detaches one observer (no-op if it was never attached).
  void RemoveObserver(CellObserver* observer) {
    std::erase(observers_, observer);
  }

  /// Always-on QoS monitor: access delay, checking delay and inter-service
  /// gap observed against the paper's budgets.  Fed directly by the MAC
  /// machinery (no event-trace dependency, no randomness), so it is live
  /// even in untraced sweep runs.
  obs::SloMonitor& slo() override { return slo_; }
  const obs::SloMonitor& slo() const override { return slo_; }

  /// Attaches a structured event trace (nullptr detaches): the cell stamps
  /// it with the simulation clock and cycle context and fans it out to the
  /// base station, every subscriber and every radio.  Attach after warm-up
  /// (next to ResetStats) so the trace and the metrics cover the same
  /// cycles.
  void AttachTrace(obs::EventTrace* trace);
  obs::EventTrace* trace() const { return trace_; }

  /// Attaches a run-journal slice (nullptr detaches): once per journaled
  /// cycle, right after the plan is fixed, the cell appends a digest record
  /// over its MAC-visible state (obs/run_journal.h).  Attach after warm-up,
  /// like the trace, so the chain covers exactly the measured window.
  void AttachJournal(obs::CellJournal* journal) override { journal_ = journal; }
  obs::CellJournal* journal() const { return journal_; }

  /// Fault injection for the divergence-diagnosis harness: burns one extra
  /// draw of the shared simulation Rng just after the plan of `cycle` is
  /// journaled, shifting the draw order of everything downstream.  With a
  /// channel that consumes shared randomness, the first divergent journal
  /// record is cycle + 1 (cycle's own record is built before the
  /// perturbation fires).  Call before running.
  void PerturbRngAt(std::int64_t cycle);

  /// One-line-per-field snapshot of the scheduling state, printed by the
  /// contract framework when a check fails while this cell is running.
  std::string DumpState() const;

  // --- traffic ---------------------------------------------------------------

  /// Queues an uplink message at `node` now; returns false on buffer drop.
  bool SendUplinkMessage(int node, int bytes) override;
  /// Queues a downlink message to `node` (must be registered).
  bool SendDownlinkMessage(int node, int bytes);
  /// Queues a subscriber-to-subscriber message: uplink at `src_node`,
  /// reassembled by the base station and forwarded downlink to the
  /// destination EIN (another subscriber, possibly paged or — with a
  /// backbone router — in another cell).
  bool SendSubscriberMessage(int src_node, Ein dest_ein, int bytes);
  /// Starts an in-band sign-off at `node` (kDeregistration in a contention
  /// slot); the unit powers off once the base station acknowledges.
  void RequestSignOff(int node);

  // --- running ----------------------------------------------------------------

  /// Runs `cycles` (>= 0) further notification cycles.
  void RunCycles(int cycles) override { RunCyclesOn(cycles); }
  /// Zeroes all statistics (base station, subscribers, cell aggregates):
  /// call after a warm-up period.
  void ResetStats() override;

  std::int64_t current_cycle() const { return next_cycle_ - 1; }
  const CellMetrics& metrics() const override { return metrics_; }

 private:
  /// The cell's event kinds (sim::Event::kind); `index` is the slot.
  /// kLastDataSlotOfPrev is the previous cycle's last data slot.
  enum SimEvent : std::int32_t {
    kPerturbRng = 1, kCf1, kCf2, kForwardSlot, kGpsSlot, kDataSlot, kLastDataSlotOfPrev
  };

  void Fire(const sim::Event& event) override;
  void StartCycle(std::int64_t n);
  /// Builds and appends the journal record for cycle `n` (journal hash
  /// hook: allocation-free, clock-free — `journal-hook-discipline` lint).
  void JournalCycle(std::int64_t n);
  void DeliverControlFields(const ControlFields& cf, bool second, Tick cycle_start);
  void ResolveGpsSlot(int slot, Interval abs);
  void ResolveDataSlot(int slot, Interval abs, bool is_last_of_prev);
  /// Schedules forward slot `slot` of the cycle starting at `cycle_start`
  /// under the slot's reserved sequence number.
  void ScheduleForwardSlot(Tick cycle_start, int slot);
  void DeliverForwardSlot(int slot, Interval abs);
  void DrainDeliveries();
  /// An uplink arrival may still catch a contention slot later in this
  /// cycle: puts `node`'s late contention burst, if any, on the air.
  void TransmitLateContention(int node);
  void Emit(const obs::Event& event) {
    if (trace_ != nullptr) trace_->Record(event);
  }
  void EmitBurstTx(int node, const PlannedBurst& burst, Interval on_air);
  void EmitSlotResolved(int slot, Interval abs, std::int64_t outcome, bool assigned,
                        bool designated_contention, bool is_gps);

  BaseStation bs_;
  std::vector<std::unique_ptr<MobileSubscriber>> subscribers_;

  /// This cycle's first control fields, delivered at the end of CF1.
  ControlFields cf1_;
  /// First of the kForwardDataSlots sequence numbers StartCycle reserved
  /// for this cycle's forward slots; slot s fires under forward_seq_ + s.
  std::uint64_t forward_seq_ = 0;
  /// Format of the previous cycle, whose last data slot resolves in this one.
  ReverseFormat format_of_prev_ = ReverseFormat::kFormat2;
  std::map<std::uint32_t, Tick> downlink_enqueue_tick_;

  /// One listener's planned bursts, refilled per control-field delivery.
  std::vector<PlannedBurst> planned_;

  std::vector<CellObserver*> observers_;
  /// Per-node tick of the last off-state paging check; erased whenever the
  /// node is seen active so checking delay only spans true inactive periods.
  std::map<int, Tick> last_paging_check_;

  // Declared last so the check hooks outlive nothing they reference.
  check::ScopedSimClock check_clock_;
  check::ScopedStateDump check_dump_;
};

}  // namespace osumac::mac
