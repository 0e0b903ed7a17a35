// Mobile subscriber state machine (Sections 3.1, 3.2, 3.4).
//
// Lifecycle:  kOff -> kSyncing (listening for a control field set)
//             -> kRegistering (persistent contention-slot registration)
//             -> kActive.
//
// Active data subscribers queue messages, fragment them into 44-byte
// packets, and obtain reverse slots three ways (Section 3.1): an explicit
// reservation packet in a contention slot, the piggybacked `more_slots`
// header field of data packets in granted slots, or a data packet sent
// directly in a contention slot (when only one packet is queued).  Unacked
// packets are retransmitted (the base station deduplicates).  Active GPS
// subscribers transmit one location report per cycle in their assigned GPS
// slot; corrupted reports are never retransmitted.
//
// Control-field listening follows the paper's rule: a subscriber that
// transmitted in the *last* reverse data slot of the previous cycle listens
// to the second set of control fields; everyone else listens to the first.
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "obs/event.h"
#include "obs/slo.h"
#include "mac/config.h"
#include "mac/contention.h"
#include "mac/control_fields.h"
#include "mac/counter_field.h"
#include "mac/cycle_layout.h"
#include "mac/ids.h"
#include "mac/packet.h"
#include "phy/radio.h"

namespace osumac::mac {

/// One burst the subscriber will transmit in the current cycle.
struct PlannedBurst {
  bool is_gps_slot = false;
  int slot = -1;  ///< GPS or data slot index within the cycle
  InfoBlock info;  ///< serialized information block
};

/// Subscriber-side counters feeding the paper's figures.
struct SubscriberCounters {
  std::int64_t messages_enqueued = 0;
  std::int64_t messages_dropped = 0;     ///< uplink queue overflow
  std::int64_t packets_sent = 0;         ///< data packets (granted slots)
  std::int64_t contention_data_sent = 0;
  std::int64_t reservation_packets_sent = 0;
  std::int64_t registration_attempts = 0;
  std::int64_t packets_delivered = 0;    ///< acked by the base station
  std::int64_t packets_retransmitted = 0;
  std::int64_t gps_reports_sent = 0;
  std::int64_t cf_missed = 0;            ///< control fields lost to channel
  std::int64_t forward_packets_received = 0;
  std::int64_t payload_bytes_delivered = 0;
};

/// Every SubscriberCounters field, in declaration order (row i is keyed by
/// DigestKey(i) in the journal's ledger fold, KeyedLedgerSum).
inline constexpr CounterField<SubscriberCounters> kSubscriberCounterFields[] = {
    {"messages_enqueued", &SubscriberCounters::messages_enqueued},
    {"messages_dropped", &SubscriberCounters::messages_dropped},
    {"packets_sent", &SubscriberCounters::packets_sent},
    {"contention_data_sent", &SubscriberCounters::contention_data_sent},
    {"reservation_packets_sent", &SubscriberCounters::reservation_packets_sent},
    {"registration_attempts", &SubscriberCounters::registration_attempts},
    {"packets_delivered", &SubscriberCounters::packets_delivered},
    {"packets_retransmitted", &SubscriberCounters::packets_retransmitted},
    {"gps_reports_sent", &SubscriberCounters::gps_reports_sent},
    {"cf_missed", &SubscriberCounters::cf_missed},
    {"forward_packets_received", &SubscriberCounters::forward_packets_received},
    {"payload_bytes_delivered", &SubscriberCounters::payload_bytes_delivered},
};
static_assert(std::size(kSubscriberCounterFields) * sizeof(std::int64_t) ==
                  sizeof(SubscriberCounters),
              "every SubscriberCounters field needs a row in kSubscriberCounterFields");

/// The counters plus the delay and latency samples.
struct SubscriberStats : SubscriberCounters {
  SampleSet packet_delay_cycles;       ///< arrival -> decoded, in cycles
  SampleSet message_delay_cycles;      ///< arrival -> last fragment decoded
  SampleSet reservation_latency_cycles;  ///< first attempt -> acked
  SampleSet registration_latency_cycles; ///< first attempt -> grant seen
  SampleSet gps_access_delay_seconds;  ///< report ready -> slot start
};

class MobileSubscriber {
 public:
  /// `node_index` is the Cell-level identity used by the PHY layer;
  /// `wants_gps` selects the GPS role (buses) vs data role.
  MobileSubscriber(int node_index, Ein ein, bool wants_gps, const MacConfig& config,
                   Rng rng);

  enum class State { kOff, kSyncing, kRegistering, kActive, kGivenUp };

  // --- lifecycle -----------------------------------------------------------

  /// Powers the unit on; it will sync to the next control fields and then
  /// register.
  void PowerOn();
  /// Powers the unit off (sign-off is modeled at the Cell level, which also
  /// informs the base station).
  void PowerOff();

  // --- per-cycle driving (called by the Cell) ------------------------------

  /// Called at every cycle start (radio housekeeping).
  void OnCycleStart(std::uint16_t cycle, Tick cycle_start);

  /// True if this subscriber listens to the second control fields this
  /// cycle (because it transmitted in the last reverse data slot).
  bool listens_second_cf() const { return listen_second_cf_; }

  /// Whether the unit is currently listening for control fields at all.
  bool IsListening() const;

  /// Processes a successfully decoded control-field set and appends the
  /// bursts to put on the reverse channel this cycle to `bursts` (a buffer
  /// the caller owns and reuses).  Also commits all radio RX/TX intervals
  /// for the cycle.
  void OnControlFields(const ControlFields& cf, Tick cycle_start,
                       std::vector<PlannedBurst>& bursts);

  /// The expected control fields could not be decoded: the subscriber
  /// stays silent this cycle (it has no trustworthy schedule).
  void OnControlFieldsMissed();

  /// True if the subscriber expects forward slot `slot` this cycle (it saw
  /// the schedule and the slot is addressed to it).
  bool ExpectsForwardSlot(int slot) const;

  /// Delivers a decoded forward data packet.
  void OnForwardPacket(const ForwardDataPacket& packet);

  /// Downlink messages fully reassembled since the last call.
  std::vector<std::uint32_t> TakeCompletedForwardMessages();

  // --- traffic -------------------------------------------------------------

  /// Queues an uplink message of `bytes` bytes.  Returns false if the
  /// queue cannot hold it (buffer overflow, counted as a drop).
  /// `dest_ein` != 0 addresses the message to another subscriber (the base
  /// station reassembles and forwards it); 0 terminates it at the
  /// infrastructure.
  bool EnqueueMessage(std::uint32_t message_id, int bytes, Tick now, Ein dest_ein = 0);

  /// Starts an in-band sign-off: the subscriber sends kDeregistration in a
  /// contention slot (persisting like a registration) and powers off once
  /// the base station acknowledges (or after a bounded number of tries).
  void RequestSignOff();

  /// Called right after an uplink arrival: if the subscriber is idle and a
  /// contention slot of the *current* cycle still lies in the future, it
  /// may contend immediately instead of waiting for the next control
  /// fields (it learned the slot positions from this cycle's CF).
  std::optional<PlannedBurst> MaybeLateContention(Tick now);

  /// Generates a GPS report becoming ready at `ready_tick` (GPS role only).
  void QueueGpsReport(Tick ready_tick);

  // --- introspection --------------------------------------------------------

  State state() const { return state_; }
  UserId user_id() const { return uid_; }
  Ein ein() const { return ein_; }
  bool is_gps() const { return wants_gps_; }
  int node_index() const { return node_index_; }
  phy::HalfDuplexRadio& radio() { return radio_; }
  const phy::HalfDuplexRadio& radio() const { return radio_; }
  const SubscriberStats& stats() const { return stats_; }
  /// Zeroes the statistics (used after a warm-up period).
  void ResetStats() { stats_ = SubscriberStats{}; }
  int queued_packets() const { return static_cast<int>(queue_.size()); }
  std::optional<int> gps_slot() const { return gps_slot_; }

  /// Streams subscriber-side events (missed control fields, contention
  /// attempts, retransmissions, packet-lifecycle stages) to `sink` (null
  /// detaches).  Packets enqueued while a sink is attached carry lifecycle
  /// ids; packets from before the attach stay untraced.
  void SetEventSink(obs::EventSink* sink) { sink_ = sink; }

  /// Streams access-delay observations to `slo` (null detaches).
  void SetSloMonitor(obs::SloMonitor* slo) { slo_ = slo; }

  /// Fault injection for the run-journal divergence harness
  /// (Cell::PerturbRngAt): burns one draw from this subscriber's private
  /// RNG stream, shifting every later backoff/contention-slot pick.  Never
  /// called by the protocol itself.
  void PerturbRng() { (void)rng_.Next(); }

  /// Lifecycle id of the GPS report transmitted in GPS slot `slot` this
  /// cycle; consumed (zeroed) so the Cell emits exactly one terminal stage
  /// when the slot resolves.  0 = nothing traced in that slot.
  std::int64_t TakeGpsLifecycleInSlot(int slot);

  /// Lifecycle id of the data packet awaiting resolution in reverse slot
  /// `slot` (granted in-flight or contention data).  0 = none traced.
  std::int64_t LifecycleInSlot(int slot) const;

 private:
  struct PendingPacket {
    std::uint32_t message_id = 0;
    std::uint8_t frag_index = 0;
    std::uint8_t frag_count = 0;
    std::uint16_t payload_bytes = 0;
    Ein dest_ein = 0;
    Tick arrival_tick = 0;
    int attempts = 0;
    std::int64_t lifecycle = 0;  ///< span-tracing id; 0 = untraced
  };
  struct ContentionAttempt {
    PacketKind kind = PacketKind::kReservation;
    int slot = -1;
    bool in_last_slot = false;
    int requested = 0;
    std::optional<PendingPacket> packet;  ///< for data-in-contention
  };

  void ProcessAcks(const ControlFields& cf, Tick cycle_start);
  void ProcessGrantsAndSchedule(const ControlFields& cf);
  void PlanTransmissions(const ControlFields& cf, Tick cycle_start,
                         std::vector<PlannedBurst>& bursts);
  /// Picks a contention slot compatible with this cycle's RX commitments
  /// whose airtime starts at or after `not_before`.
  std::optional<int> PickContentionSlot(const ControlFields& cf, Tick cycle_start,
                                        const ReverseCycleLayout& layout,
                                        Tick not_before);
  /// Shared contention path for data users (reservation or direct data).
  std::optional<PlannedBurst> TryContendData(const ControlFields& cf, Tick cycle_start,
                                             Tick not_before);
  /// The reverse-cycle format implied by `cf` under the system's slot
  /// policy: with dynamic GPS slots the format follows the announced GPS
  /// count (the paper's implicit signaling); with the static ("naive")
  /// policy both ends always use format 1.
  ReverseFormat FormatOf(const ControlFields& cf) const {
    return config_.dynamic_gps_slots ? cf.Format() : ReverseFormat::kFormat1;
  }
  DataPacket MakeDataPacket(const PendingPacket& p, int more_slots);
  void Emit(const obs::Event& event) {
    if (sink_ != nullptr) sink_->Record(event);
  }
  /// kContend event for a contention-slot attempt of the given code.
  void EmitContend(std::int64_t code, int slot);
  /// kRetransmit event (an unacked uplink packet returned to the queue).
  void EmitRetransmit();
  /// kLifecycle stage record for packet `id`; no-op when `id` is 0 (the
  /// packet predates the sink) or no sink is attached.
  void EmitLifecycle(std::int64_t stage, std::int64_t id, std::int64_t detail,
                     int slot = -1, Interval span = {0, 0},
                     std::int64_t cls = obs::kClassData);

  obs::EventSink* sink_ = nullptr;
  obs::SloMonitor* slo_ = nullptr;

  // Identity / configuration.
  int node_index_;
  Ein ein_;
  bool wants_gps_;
  MacConfig config_;
  Rng rng_;

  // Protocol state.
  State state_ = State::kOff;
  UserId uid_ = kNoUser;
  std::uint16_t cycle_ = 0;
  Tick cycle_start_ = 0;
  /// Which control fields this subscriber listens to in the CURRENT cycle;
  /// latched from listen_second_next_ at each cycle start so that planning
  /// decisions made mid-cycle only affect the next cycle.
  bool listen_second_cf_ = false;
  bool listen_second_next_ = false;
  phy::HalfDuplexRadio radio_;

  // Registration.
  int registration_attempts_ = 0;
  std::optional<std::uint64_t> registration_first_attempt_cycle_;
  bool registration_attempt_outstanding_ = false;

  struct InFlight {
    int slot = -1;
    bool is_last = false;      ///< sent in the cycle's last data slot
    PendingPacket pkt;
    Tick slot_end = 0;         ///< absolute decode time at the base station
    int more_slots = 0;        ///< piggybacked demand sent with this packet
  };

  // Uplink data path.
  std::deque<PendingPacket> queue_;
  std::vector<InFlight> in_flight_;  ///< sent last cycle, awaiting ACK
  std::optional<ContentionAttempt> contention_attempt_;
  Tick contention_slot_end_ = 0;  ///< decode time of the last contention TX
  int bs_demand_estimate_ = 0;
  std::uint32_t backoff_until_cycle_ = 0;
  std::uint64_t cycle_counter_ = 0;  ///< monotonic cycle count (not mod 2^16)
  std::optional<std::uint64_t> reservation_first_attempt_;
  std::uint16_t next_seq_ = 0;
  std::map<std::uint32_t, int> frags_outstanding_;  ///< uplink msg -> frags left
  std::map<std::uint32_t, Tick> message_arrival_;

  // GPS path.
  std::optional<int> gps_slot_;
  std::optional<Tick> gps_report_ready_;
  /// Lifecycle bookkeeping mirroring gps_report_ready_: the protocol keeps
  /// only one pending fix, but the slot-start comparison may transmit the
  /// *previous* cycle's fix (fix - kCycleTicks), so two lives can be open.
  struct GpsLifecycle {
    std::int64_t id = 0;
    Tick ready = 0;
  };
  std::optional<GpsLifecycle> gps_lc_current_;  ///< this cycle's fix
  std::optional<GpsLifecycle> gps_lc_prev_;     ///< last cycle's unsent fix
  std::int64_t gps_lc_seq_ = 0;
  std::int64_t gps_tx_lifecycle_ = 0;  ///< id on the air awaiting resolution
  int gps_tx_slot_ = -1;

  // In-band sign-off.
  bool signoff_requested_ = false;
  int signoff_attempts_ = 0;
  std::optional<ContentionAttempt> signoff_attempt_;

  // Downlink ARQ (extension): forward packets to acknowledge, and ack
  // packets currently awaiting their own reverse-channel ACK.
  std::vector<ForwardAckEntry> pending_fwd_acks_;
  struct AckInFlight {
    int slot = -1;
    bool is_last = false;
    std::vector<ForwardAckEntry> entries;
  };
  std::vector<AckInFlight> acks_in_flight_;
  std::uint64_t oldest_pending_ack_cycle_ = 0;
  /// ACK batching: a kForwardAck packet costs a whole reverse slot, so it
  /// is only worth sending once several entries accumulated or the oldest
  /// one risks tripping the base station's retransmission timer.
  bool ShouldSendAcks() const {
    if (pending_fwd_acks_.empty()) return false;
    return static_cast<int>(pending_fwd_acks_.size()) >= 5 ||
           cycle_counter_ - oldest_pending_ack_cycle_ >= 2;
  }
  /// Builds one kForwardAck burst covering up to kMaxForwardAcks pending
  /// entries, committing the radio and bookkeeping.
  PlannedBurst MakeAckBurst(int slot, const ReverseCycleLayout& layout, Tick cycle_start);

  // The control fields received this cycle (for late contention) and the
  // number of reverse slots granted to us in them.
  std::optional<ControlFields> current_cf_;
  int granted_this_cycle_ = 0;

  // Forward path.
  /// Forward slots this cycle carries for us, bit s for slot s.
  std::uint64_t forward_slots_mine_ = 0;
  static_assert(kForwardDataSlots <= 64);
  std::map<std::uint32_t, std::set<std::uint8_t>> forward_frags_;
  std::map<std::uint32_t, std::uint8_t> forward_frag_counts_;
  std::vector<std::uint32_t> completed_forward_messages_;

  SubscriberStats stats_;
};

}  // namespace osumac::mac
