// The base station: resource arbitration, channel access and registration
// for one cell (Section 3).
//
// The base station owns all scheduling state: the registration table
// (EIN -> user ID), the GPS slot manager, the reservation (demand) table,
// the round-robin schedulers for both channels and the contention-slot
// controller.  The Cell driver calls into it at well-defined points of each
// notification cycle:
//
//   PlanCycle(n)                     at the cycle start: fixes both channel
//                                    schedules and returns the CF1 content
//   OnLastSlotOfPreviousCycle(...)   when the reverse slot that overlapped
//                                    CF1 resolves; finalizes CF2
//   SecondControlFields()            CF2 content for this cycle
//   OnGpsSlotResolved / OnDataSlotResolved   per reverse slot outcome
//   DownlinkPacketForSlot(s)         the forward packet to send in slot s
//
// All observations made during cycle n feed the schedules and ACKs of
// cycle n+1, exactly as in the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/event.h"
#include "mac/config.h"
#include "mac/contention.h"
#include "mac/control_fields.h"
#include "mac/counter_field.h"
#include "mac/cycle_layout.h"
#include "mac/forward_scheduler.h"
#include "mac/gps_slot_manager.h"
#include "mac/ids.h"
#include "mac/packet.h"
#include "mac/round_robin.h"
#include "phy/channel.h"

namespace osumac::mac {

/// Cumulative base-station-side counters (inputs to the paper's figures).
struct BsCounters {
  std::int64_t cycles = 0;
  std::int64_t data_packets_received = 0;        ///< in assigned slots
  std::int64_t contention_data_received = 0;     ///< data sent in contention
  std::int64_t reservation_packets_received = 0;
  std::int64_t registration_packets_received = 0;
  std::int64_t gps_packets_received = 0;
  std::int64_t gps_packets_failed = 0;           ///< GPS decode failures
  std::int64_t collisions = 0;                   ///< collided contention slots
  std::int64_t contention_slot_cycles = 0;       ///< contention slots offered
  std::int64_t idle_contention_slots = 0;
  std::int64_t idle_assigned_slots = 0;          ///< granted but unused
  std::int64_t decode_failures = 0;              ///< single sender, RS failed
  std::int64_t duplicate_packets = 0;            ///< retransmitted duplicates
  std::int64_t payload_bytes_received = 0;       ///< unique data payload
  std::int64_t last_slot_data_packets = 0;       ///< packets in the last
                                                 ///< reverse data slot (CF2 gain)
  std::int64_t registrations_approved = 0;
  std::int64_t registrations_rejected = 0;
  std::int64_t forward_packets_sent = 0;
  std::int64_t data_slots_offered = 0;           ///< reverse data slots existing
  std::int64_t data_slots_used = 0;              ///< carried a decoded packet
  std::int64_t downlink_dropped = 0;             ///< downlink messages dropped
  std::int64_t deregistrations_received = 0;     ///< in-band sign-offs
  std::int64_t forward_acks_received = 0;        ///< kForwardAck packets (ARQ)
  std::int64_t forward_retransmissions = 0;      ///< ARQ retransmits queued
  std::int64_t forward_arq_drops = 0;            ///< gave up after max retries
  std::int64_t messages_forwarded_local = 0;     ///< uplink msg -> local downlink
  std::int64_t messages_forwarded_backbone = 0;  ///< handed to the backbone
  std::int64_t messages_buffered_for_paging = 0; ///< dest not registered yet
  std::int64_t forward_buffer_drops = 0;         ///< paging buffer overflow
  std::int64_t gps_timeouts = 0;                 ///< buses signed off as gone
};

/// Every BsCounters field, in declaration order (row i is keyed by
/// DigestKey(i) in the journal's ledger fold, KeyedLedgerSum).
inline constexpr CounterField<BsCounters> kBsCounterFields[] = {
    {"cycles", &BsCounters::cycles},
    {"data_packets_received", &BsCounters::data_packets_received},
    {"contention_data_received", &BsCounters::contention_data_received},
    {"reservation_packets_received", &BsCounters::reservation_packets_received},
    {"registration_packets_received", &BsCounters::registration_packets_received},
    {"gps_packets_received", &BsCounters::gps_packets_received},
    {"gps_packets_failed", &BsCounters::gps_packets_failed},
    {"collisions", &BsCounters::collisions},
    {"contention_slot_cycles", &BsCounters::contention_slot_cycles},
    {"idle_contention_slots", &BsCounters::idle_contention_slots},
    {"idle_assigned_slots", &BsCounters::idle_assigned_slots},
    {"decode_failures", &BsCounters::decode_failures},
    {"duplicate_packets", &BsCounters::duplicate_packets},
    {"payload_bytes_received", &BsCounters::payload_bytes_received},
    {"last_slot_data_packets", &BsCounters::last_slot_data_packets},
    {"registrations_approved", &BsCounters::registrations_approved},
    {"registrations_rejected", &BsCounters::registrations_rejected},
    {"forward_packets_sent", &BsCounters::forward_packets_sent},
    {"data_slots_offered", &BsCounters::data_slots_offered},
    {"data_slots_used", &BsCounters::data_slots_used},
    {"downlink_dropped", &BsCounters::downlink_dropped},
    {"deregistrations_received", &BsCounters::deregistrations_received},
    {"forward_acks_received", &BsCounters::forward_acks_received},
    {"forward_retransmissions", &BsCounters::forward_retransmissions},
    {"forward_arq_drops", &BsCounters::forward_arq_drops},
    {"messages_forwarded_local", &BsCounters::messages_forwarded_local},
    {"messages_forwarded_backbone", &BsCounters::messages_forwarded_backbone},
    {"messages_buffered_for_paging", &BsCounters::messages_buffered_for_paging},
    {"forward_buffer_drops", &BsCounters::forward_buffer_drops},
    {"gps_timeouts", &BsCounters::gps_timeouts},
};
static_assert(std::size(kBsCounterFields) * sizeof(std::int64_t) == sizeof(BsCounters),
              "every BsCounters field needs a row in kBsCounterFields");

/// Uplink delivery record handed to the Cell for metrics (per decoded data
/// packet).
struct UplinkDelivery {
  UserId src = kNoUser;
  std::uint32_t message_id = 0;
  std::uint8_t frag_index = 0;
  std::uint8_t frag_count = 0;
  std::uint16_t payload_bytes = 0;
  bool duplicate = false;
  bool in_contention_slot = false;
};

class BaseStation {
 public:
  explicit BaseStation(const MacConfig& config);

  // --- cycle driving (called by Cell) -------------------------------------

  /// Fixes the schedules for cycle `cycle` and returns the first set of
  /// control fields.  Must be called once per cycle, in order.
  ControlFields PlanCycle(std::uint16_t cycle);

  /// Reports the resolution of the *previous* cycle's last reverse data
  /// slot (which overlapped this cycle's CF1).  Must be called after
  /// PlanCycle and before SecondControlFields.
  void OnLastSlotOfPreviousCycle(const phy::SlotReception& reception);

  /// Returns the finalized second set of control fields for this cycle.
  ControlFields SecondControlFields();

  /// Reports the outcome of GPS slot `slot` of the current cycle.
  void OnGpsSlotResolved(int slot, const phy::SlotReception& reception);

  /// Reports the outcome of reverse data slot `slot` of the current cycle.
  /// For the *last* data slot this is deferred by the Cell into the next
  /// cycle's OnLastSlotOfPreviousCycle call instead.
  void OnDataSlotResolved(int slot, const phy::SlotReception& reception);

  /// Deliveries decoded since the last ClearDeliveries (for Cell metrics).
  const std::vector<UplinkDelivery>& deliveries() const { return deliveries_; }
  /// Empties deliveries(), keeping its capacity for the next slots.
  void ClearDeliveries() { deliveries_.clear(); }

  /// User IDs whose GPS report was decoded this cycle (for tracking
  /// applications built on the MAC); PlanCycle starts the list afresh.
  std::span<const UserId> gps_receptions() const { return gps_receptions_; }

  // --- downlink ------------------------------------------------------------

  /// Queues a downlink message to a registered user; fragments into
  /// packets.  Returns false (drop) if the user is unknown or the queue is
  /// full.  For unregistered EINs use PageAndQueue.
  bool EnqueueDownlink(UserId dest, std::uint32_t message_id, int bytes);

  /// Pages an inactive EIN (added to the paging field until it registers).
  void Page(Ein ein);

  /// User ID currently assigned to `ein`, if registered.
  std::optional<UserId> UserIdForEin(Ein ein) const;

  /// Delivers a message to `ein` if it is registered here, otherwise pages
  /// it and buffers the message (bounded).  Used for backbone-injected
  /// traffic; returns false only when the paging buffer is full.
  bool DeliverToEin(Ein ein, int bytes);

  /// Sets the backbone router: invoked with (src uid, destination EIN,
  /// message bytes) when a complete uplink message is addressed to an EIN
  /// not registered in this cell.  Returns true if the backbone accepted
  /// it.  Unset or false: the EIN is paged and the message buffered.
  void SetBackboneRouter(std::function<bool(UserId, Ein, int)> router) {
    backbone_router_ = std::move(router);
  }

  /// Downlink messages enqueued by the router/forwarding path since the
  /// last call: {message id, destination uid, bytes} (for Cell metrics).
  struct ForwardedMessage {
    std::uint32_t message_id = 0;
    UserId dest = kNoUser;
    int bytes = 0;
  };
  std::vector<ForwardedMessage> TakeForwardedMessages();

  /// The forward packet the base station transmits in forward slot `s` of
  /// the current cycle, if any.  Consumes the packet.
  std::optional<ForwardDataPacket> DownlinkPacketForSlot(int s);

  // --- introspection --------------------------------------------------------

  const BsCounters& counters() const { return counters_; }
  /// Zeroes the counters (used after a warm-up period).
  void ResetCounters() { counters_ = BsCounters{}; }
  const GpsSlotManager& gps_manager() const { return gps_; }
  int contention_slots() const { return contention_.slots(); }
  /// Contention slots at the front of the current cycle's reverse layout.
  int contention_slots_this_cycle() const { return contention_slots_this_cycle_; }

  /// Streams packet-semantic events (deliveries, reservations,
  /// registrations, ARQ activity) to `sink` (null detaches).  The sink
  /// stamps time; the base station itself has no clock.
  void SetEventSink(obs::EventSink* sink) { sink_ = sink; }
  ReverseFormat current_format() const { return current_format_; }
  const std::array<UserId, kMaxReverseDataSlots>& reverse_schedule() const {
    return reverse_schedule_;
  }
  const std::array<UserId, kForwardDataSlots>& forward_schedule() const {
    return forward_schedule_;
  }
  /// The user that must listen to CF2 this cycle (kNoUser if none).
  UserId cf2_listener() const { return cf2_listener_; }
  /// Registered users (uid -> EIN).
  const std::map<UserId, Ein>& registered_users() const { return uid_to_ein_; }
  /// Demand table (for tests).
  const std::map<UserId, int>& demand() const { return demand_; }
  std::uint16_t cycle() const { return cycle_; }

  /// Forcibly signs off a user (models power-off / leaving the cell).
  void SignOff(UserId uid);

 private:
  void ProcessUplinkInfo(int slot, const std::vector<std::vector<fec::GfElem>>& info,
                         bool is_last_slot);
  void HandleRegistration(const RegistrationPacket& reg, int slot, bool is_last_slot);
  void Emit(const obs::Event& event) {
    if (sink_ != nullptr) sink_->Record(event);
  }

  obs::EventSink* sink_ = nullptr;
  MacConfig config_;
  std::uint16_t cycle_ = 0;
  BsCounters counters_;

  // Registration state.
  std::map<Ein, UserId> ein_to_uid_;
  std::map<UserId, Ein> uid_to_ein_;
  UserMask gps_users_;
  std::deque<RegistrationGrant> grant_queue_;  ///< approved, awaiting announce
  std::optional<RegistrationGrant> late_grant_;  ///< approved in last slot

  // Scheduling state.
  GpsSlotManager gps_;
  RoundRobinScheduler reverse_rr_;
  RoundRobinScheduler forward_rr_;
  ContentionController contention_;
  std::map<UserId, int> demand_;  ///< reverse-slot demand per user
  std::vector<SlotRun> reverse_runs_;  ///< PlanCycle's allocation, reused

  // Current-cycle schedules.
  ReverseFormat current_format_ = ReverseFormat::kFormat2;
  std::array<UserId, kMaxReverseDataSlots> reverse_schedule_{};
  std::array<UserId, kForwardDataSlots> forward_schedule_{};
  std::array<UserId, kForwardDataSlots> forward_schedule_cf2_{};
  UserId cf2_listener_ = kNoUser;
  Tick cf2_listener_tx_tail_end_ = 0;
  UserId last_slot_user_this_cycle_ = kNoUser;  ///< becomes next cf2 listener
  int data_slot_count_this_cycle_ = 0;
  ForwardScheduleInput fwd_input_;  ///< constraints used for this cycle
  /// Users who may receive forward slot 0 next cycle (see PlanCycle).
  UserMask slot0_eligible_;

  // Observations of the current cycle, announced next cycle.
  std::array<UserId, kReverseAckEntries> acks_next_{};
  std::uint8_t gps_ack_bitmap_next_ = 0;
  int collisions_this_cycle_ = 0;
  int idle_contention_this_cycle_ = 0;
  int contention_slots_this_cycle_ = 0;

  // CF2 late-ack state (filled by OnLastSlotOfPreviousCycle).
  UserId late_ack_ = kNoUser;
  ControlFields cf1_this_cycle_;

  // Downlink.
  std::map<UserId, std::deque<ForwardDataPacket>> downlink_;
  /// This cycle's packet per forward slot, until its slot event takes it.
  std::array<std::optional<ForwardDataPacket>, kForwardDataSlots> forward_slot_packets_{};
  std::set<Ein> paging_;
  std::uint16_t next_seq_ = 0;

  std::vector<UplinkDelivery> deliveries_;
  std::vector<UserId> gps_receptions_;  ///< this cycle's decoded GPS reports
  /// Dedup: highest (message_id, frag) seen per user is too weak; track a
  /// small recent-set per user keyed by (message_id << 8 | frag).
  std::map<UserId, std::set<std::uint64_t>> seen_frags_;

  // --- uplink message reassembly & routing -----------------------------------
  struct Reassembly {
    std::set<std::uint8_t> frags;
    int frag_count = 0;
    int bytes = 0;
    Ein dest_ein = 0;
  };
  void RouteCompleteMessage(UserId src, Ein dest_ein, int bytes);
  std::map<std::pair<UserId, std::uint32_t>, Reassembly> reassembly_;
  std::function<bool(UserId, Ein, int)> backbone_router_;
  /// Messages awaiting registration of their destination EIN.
  std::map<Ein, std::deque<int>> paging_buffer_;  ///< ein -> message bytes
  std::vector<ForwardedMessage> forwarded_;
  std::uint32_t next_forward_msg_id_ = 0x80000001;  ///< BS-originated id space

  // --- downlink ARQ -------------------------------------------------------------
  struct UnackedForward {
    ForwardDataPacket packet;
    std::uint64_t sent_cycle = 0;
    int retries = 0;
  };
  /// Keyed by (dest uid, message_id low 16 | frag) — matches the ACK wire
  /// format, which carries only the low 16 id bits.
  std::map<std::pair<UserId, std::uint32_t>, UnackedForward> unacked_forward_;
  /// Retry counts carried across a requeue (key as above).
  std::map<std::pair<UserId, std::uint32_t>, int> arq_retries_carry_;
  std::uint64_t cycle_counter_ = 0;  ///< monotonic (not mod 2^16)

  // --- GPS liveness ----------------------------------------------------------
  std::map<UserId, int> gps_consecutive_misses_;
};

}  // namespace osumac::mac
