#include "mac/base_station.h"

#include <algorithm>
#include "common/check.h"


namespace osumac::mac {

namespace {
/// Per-user downlink queue capacity in packets.
constexpr int kDownlinkQueuePackets = 256;
/// Cycles to wait for an ACK before retransmitting.  The ack itself needs a
/// reverse slot (grant or contention), so the round trip is ~4 cycles; a
/// smaller timeout causes spurious retransmission.
constexpr std::uint64_t kArqTimeoutCycles = 6;
/// Retransmissions per forward packet before it is dropped.
constexpr int kArqMaxRetries = 4;

constexpr std::uint64_t FragKey(std::uint32_t message_id, std::uint8_t frag) {
  return (static_cast<std::uint64_t>(message_id) << 8) | frag;
}
}  // namespace

BaseStation::BaseStation(const MacConfig& config)
    : config_(config), gps_(config.dynamic_gps_slots), contention_(config) {
  reverse_schedule_.fill(kNoUser);
  forward_schedule_.fill(kNoUser);
  forward_schedule_cf2_.fill(kNoUser);
  acks_next_.fill(kNoUser);
}

ControlFields BaseStation::PlanCycle(std::uint16_t cycle) {
  // Feed last cycle's contention observations into the controller.
  contention_.OnCycleObserved(collisions_this_cycle_, idle_contention_this_cycle_,
                              contention_slots_this_cycle_);
  collisions_this_cycle_ = 0;
  idle_contention_this_cycle_ = 0;

  cycle_ = cycle;
  ++counters_.cycles;
  ++cycle_counter_;
  gps_receptions_.clear();

  // Downlink ARQ: retransmit forward packets whose ACK timed out.
  if (config_.downlink_arq) {
    for (auto it = unacked_forward_.begin(); it != unacked_forward_.end();) {
      if (cycle_counter_ - it->second.sent_cycle < kArqTimeoutCycles) {
        ++it;
        continue;
      }
      if (it->second.retries >= kArqMaxRetries) {
        ++counters_.forward_arq_drops;
        if (sink_ != nullptr) {
          obs::Event e;
          e.kind = obs::EventKind::kArqDrop;
          e.channel = obs::Channel::kForward;
          e.uid = it->first.first;
          e.a0 = it->second.retries;
          Emit(e);
        }
        it = unacked_forward_.erase(it);
        continue;
      }
      ForwardDataPacket retx = it->second.packet;
      const UserId dest = it->first.first;
      const int retries = it->second.retries;
      it = unacked_forward_.erase(it);
      auto& queue = downlink_[dest];
      queue.push_front(retx);
      ++counters_.forward_retransmissions;
      if (sink_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::kArqRetry;
        e.channel = obs::Channel::kForward;
        e.uid = dest;
        e.a0 = retries + 1;
        Emit(e);
      }
      // Remember the retry count so a re-send resumes where it left off.
      arq_retries_carry_[{dest, (retx.message_id & 0xFFFFu) << 8 | retx.frag_index}] =
          retries + 1;
    }
  }

  // The user holding the last reverse data slot of the previous cycle is
  // still transmitting while CF1 goes out; it listens to CF2 this cycle.
  const ReverseCycleLayout prev_layout(current_format_);
  cf2_listener_ = last_slot_user_this_cycle_;
  cf2_listener_tx_tail_end_ =
      prev_layout.DataSlot(prev_layout.last_data_slot()).end - kCycleTicks;

  // --- GPS schedule and format --------------------------------------------
  current_format_ = gps_.Format();
  const ReverseCycleLayout layout(current_format_);
  const int n_data = layout.data_slot_count();
  data_slot_count_this_cycle_ = n_data;

  ControlFields cf;
  cf.cycle = cycle;
  cf.gps_schedule = gps_.Schedule();

  // --- reverse data-slot schedule -----------------------------------------
  reverse_schedule_.fill(kNoUser);
  const int contention_slots = std::min(contention_.slots(), n_data);
  // Without the second control fields the last slot cannot be used at all
  // (its user could never learn any schedule): the rejected alternative.
  const int last_usable = config_.use_second_control_field ? n_data - 1 : n_data - 2;
  const int assignable = std::max(0, last_usable - contention_slots + 1);

  reverse_rr_.Allocate(demand_, assignable, reverse_runs_);
  // A GPS user must never hold the last data slot: it could not listen to
  // CF2 without clashing with its own early-cycle GPS transmission.  Lumped
  // runs stay contiguous under reordering, so lay out GPS users' runs
  // first, then everyone else's, each in allocation order.
  int next_slot = contention_slots;
  for (const bool gps_pass : {true, false}) {
    for (const SlotRun& run : reverse_runs_) {
      if (gps_users_.contains(run.user) != gps_pass) continue;
      int granted_here = run.count;
      // Only possible when every demander is a GPS user: surrender the very
      // last slot rather than strand its user.
      if (gps_pass && next_slot + granted_here - 1 >= last_usable) {
        granted_here = std::max(0, last_usable - next_slot);
      }
      // The run is contiguous from next_slot, so bounding its last slot bounds
      // every write below.  Debug-only: this loop is the per-cycle scheduling
      // hot path (~10% measured), and the auditor re-checks slot bounds via
      // format-consistency on every planned schedule.
      if (granted_here > 0) OSUMAC_DCHECK_LE(next_slot + granted_here - 1, last_usable);
      for (int i = 0; i < granted_here; ++i) {
        const int slot = next_slot + i;
        reverse_schedule_[static_cast<std::size_t>(slot)] = run.user;
      }
      next_slot += granted_here;
      demand_[run.user] -= granted_here;
      if (demand_[run.user] <= 0) demand_.erase(run.user);
    }
  }
  cf.reverse_schedule = reverse_schedule_;
  last_slot_user_this_cycle_ = reverse_schedule_[static_cast<std::size_t>(n_data - 1)];

  // Forward-slot-0 eligibility for THIS cycle comes from the PREVIOUS
  // cycle's grants: those users provably did not contend last cycle (a
  // contender might have used its last slot and be a CF2 listener now), so
  // they are guaranteed CF1 listeners who can learn a slot-0 assignment in
  // time.  GPS users never occupy the last slot and always qualify.  The
  // set for the next cycle is snapshotted from this cycle's grants below.
  const UserMask slot0_eligible_now = slot0_eligible_;
  slot0_eligible_ = gps_users_;
  for (int i = 0; i < n_data; ++i) {
    const UserId u = reverse_schedule_[static_cast<std::size_t>(i)];
    if (u != kNoUser) slot0_eligible_.insert(u);
  }

  contention_slots_this_cycle_ = contention_slots;
  counters_.contention_slot_cycles += contention_slots;
  counters_.data_slots_offered += n_data;

  // --- forward schedule -----------------------------------------------------
  fwd_input_ = ForwardScheduleInput{};
  for (const auto& [uid, queue] : downlink_) {
    if (!queue.empty()) fwd_input_.demand[uid] = static_cast<int>(queue.size());
  }
  fwd_input_.reverse_schedule = reverse_schedule_;
  fwd_input_.format = current_format_;
  fwd_input_.gps_schedule = cf.gps_schedule;
  fwd_input_.cf2_listener = cf2_listener_;
  fwd_input_.cf2_listener_tx_tail_end = cf2_listener_tx_tail_end_;
  fwd_input_.slot0_eligible = slot0_eligible_now;
  forward_schedule_ = BuildForwardSchedule(fwd_input_, forward_rr_);
  cf.forward_schedule = forward_schedule_;
  forward_schedule_cf2_ = forward_schedule_;

  // Dequeue the scheduled downlink packets, in slot order.  The Cell
  // schedules a slot event only for a slot that carries a packet, so every
  // packet of the last cycle must have been taken by now.
  for (int s = 0; s < kForwardDataSlots; ++s) {
    std::optional<ForwardDataPacket>& slot = forward_slot_packets_[static_cast<std::size_t>(s)];
    OSUMAC_CHECK(!slot.has_value() && "a forward packet outlived its slot");
    const UserId uid = forward_schedule_[static_cast<std::size_t>(s)];
    if (uid == kNoUser) continue;
    auto& queue = downlink_[uid];
    OSUMAC_DCHECK(!queue.empty());
    slot = queue.front();
    queue.pop_front();
  }

  // --- ACKs, grants, paging --------------------------------------------------
  cf.reverse_acks = acks_next_;
  acks_next_.fill(kNoUser);
  cf.gps_ack_bitmap = gps_ack_bitmap_next_;
  gps_ack_bitmap_next_ = 0;

  while (cf.grant_count < kMaxRegistrationGrants && !grant_queue_.empty()) {
    cf.grants[static_cast<std::size_t>(cf.grant_count++)] = grant_queue_.front();
    grant_queue_.pop_front();
  }

  for (Ein ein : paging_) {
    if (cf.paged_count >= kMaxPagedUsers) break;
    cf.paging[static_cast<std::size_t>(cf.paged_count++)] = ein;
  }

  late_ack_ = kNoUser;
  late_grant_.reset();
  cf1_this_cycle_ = cf;
  return cf;
}

void BaseStation::OnLastSlotOfPreviousCycle(const phy::SlotReception& reception) {
  // The slot index in the *previous* cycle's numbering was its last data
  // slot; its ACK travels in this cycle's CF2 late fields.
  switch (reception.outcome) {
    case phy::SlotOutcome::kIdle:
      if (cf2_listener_ != kNoUser) ++counters_.idle_assigned_slots;
      break;
    case phy::SlotOutcome::kCollision:
      ++collisions_this_cycle_;
      ++counters_.collisions;
      break;
    case phy::SlotOutcome::kDecodeFailure:
      ++counters_.decode_failures;
      break;
    case phy::SlotOutcome::kDecoded:
      ProcessUplinkInfo(-1, reception.info, /*is_last_slot=*/true);
      break;
  }
}

ControlFields BaseStation::SecondControlFields() {
  ControlFields cf2 = cf1_this_cycle_;
  cf2.is_second_set = true;
  cf2.late_ack = late_ack_;
  cf2.late_grant = late_grant_;

  // Assign CF1-idle forward slots to the CF2 listener if it has queued
  // downlink traffic (Section 3.4, Problem 3).  Only that user hears CF2,
  // so no other subscriber can be misled by the richer schedule.
  if (cf2_listener_ != kNoUser) {
    auto it = downlink_.find(cf2_listener_);
    if (it != downlink_.end() && !it->second.empty()) {
      for (int s = 1; s < kForwardDataSlots && !it->second.empty(); ++s) {
        if (forward_schedule_cf2_[static_cast<std::size_t>(s)] != kNoUser) continue;
        if (!ForwardSlotCompatible(fwd_input_, cf2_listener_, s)) continue;
        forward_schedule_cf2_[static_cast<std::size_t>(s)] = cf2_listener_;
        forward_slot_packets_[static_cast<std::size_t>(s)] = it->second.front();
        it->second.pop_front();
      }
    }
  }
  cf2.forward_schedule = forward_schedule_cf2_;
  return cf2;
}

void BaseStation::OnGpsSlotResolved(int slot, const phy::SlotReception& reception) {
  // GPS liveness: track consecutive cycles in which an assigned slot
  // carried nothing decodable; time the owner out if configured.
  const UserId owner = gps_.OwnerOf(slot);
  if (config_.gps_miss_signoff_threshold > 0 && owner != kNoUser) {
    if (reception.outcome == phy::SlotOutcome::kDecoded) {
      gps_consecutive_misses_.erase(owner);
    } else {
      const int misses = ++gps_consecutive_misses_[owner];
      if (misses >= config_.gps_miss_signoff_threshold) {
        ++counters_.gps_timeouts;
        SignOff(owner);
      }
    }
  }
  switch (reception.outcome) {
    case phy::SlotOutcome::kIdle:
      break;
    case phy::SlotOutcome::kCollision:
    case phy::SlotOutcome::kDecodeFailure:
      ++counters_.gps_packets_failed;
      break;
    case phy::SlotOutcome::kDecoded: {
      const auto gps = ParseGpsPacket(reception.info.front());
      if (gps.has_value()) {
        ++counters_.gps_packets_received;
        gps_ack_bitmap_next_ |= static_cast<std::uint8_t>(1u << slot);
        const auto it = ein_to_uid_.find(gps->ein);
        if (it != ein_to_uid_.end()) gps_receptions_.push_back(it->second);
        if (sink_ != nullptr) {
          obs::Event e;
          e.kind = obs::EventKind::kGpsReport;
          e.channel = obs::Channel::kReverse;
          e.slot = slot;
          if (it != ein_to_uid_.end()) e.uid = it->second;
          Emit(e);
        }
      } else {
        ++counters_.gps_packets_failed;
      }
      break;
    }
  }
}

void BaseStation::OnDataSlotResolved(int slot, const phy::SlotReception& reception) {
  const bool assigned = reverse_schedule_[static_cast<std::size_t>(slot)] != kNoUser;
  const bool designated_contention = slot < contention_slots_this_cycle_;
  switch (reception.outcome) {
    case phy::SlotOutcome::kIdle:
      if (assigned) {
        ++counters_.idle_assigned_slots;
      } else if (designated_contention) {
        ++idle_contention_this_cycle_;
        ++counters_.idle_contention_slots;
      }
      break;
    case phy::SlotOutcome::kCollision:
      ++collisions_this_cycle_;
      ++counters_.collisions;
      break;
    case phy::SlotOutcome::kDecodeFailure:
      ++counters_.decode_failures;
      break;
    case phy::SlotOutcome::kDecoded:
      ProcessUplinkInfo(slot, reception.info, /*is_last_slot=*/false);
      break;
  }
}

void BaseStation::ProcessUplinkInfo(int slot,
                                    const std::vector<std::vector<fec::GfElem>>& info,
                                    bool is_last_slot) {
  OSUMAC_CHECK(!info.empty());
  const auto packet = ParseUplinkPacket(info.front());
  if (!packet.has_value()) return;  // malformed; no ACK, sender retries

  const bool slot_assigned =
      !is_last_slot && slot >= 0 &&
      reverse_schedule_[static_cast<std::size_t>(slot)] != kNoUser;
  // For the deferred last slot, cf2_listener_ is the user the previous
  // cycle's schedule assigned there (kNoUser means it was open contention).
  const bool in_contention = is_last_slot ? cf2_listener_ == kNoUser : !slot_assigned;

  auto set_ack = [&](UserId uid) {
    if (is_last_slot) {
      late_ack_ = uid;
    } else if (slot >= 0 && slot < kReverseAckEntries) {
      acks_next_[static_cast<std::size_t>(slot)] = uid;
    }
  };

  switch (packet->kind) {
    case PacketKind::kData: {
      const DataPacket& d = *packet->data;
      const UserId uid = d.header.src;
      if (!uid_to_ein_.contains(uid)) return;  // stale/unknown user
      ++counters_.data_packets_received;
      ++counters_.data_slots_used;
      if (in_contention) ++counters_.contention_data_received;
      if (is_last_slot) ++counters_.last_slot_data_packets;

      const std::uint64_t key = FragKey(d.message_id, d.header.frag_index);
      const bool duplicate = !seen_frags_[uid].insert(key).second;
      if (duplicate) {
        ++counters_.duplicate_packets;
      } else {
        counters_.payload_bytes_received += d.payload_bytes;
      }
      // Subscriber-to-subscriber routing: reassemble addressed messages
      // and forward them once complete (Section 2.2).
      if (!duplicate && d.dest_ein != 0) {
        Reassembly& re = reassembly_[{uid, d.message_id}];
        re.frags.insert(d.header.frag_index);
        re.frag_count = d.frag_count;
        re.bytes += d.payload_bytes;
        re.dest_ein = d.dest_ein;
        if (static_cast<int>(re.frags.size()) >= re.frag_count) {
          RouteCompleteMessage(uid, re.dest_ein, re.bytes);
          reassembly_.erase({uid, d.message_id});
        }
      }

      // Implicit reservation: the header's more_slots field *replaces* the
      // user's demand (it reports the current queue length).
      const int more = std::min<int>(d.header.more_slots, kMaxSlotsPerRequest);
      if (more > 0) {
        demand_[uid] = more;
      } else {
        demand_.erase(uid);
      }
      set_ack(uid);

      UplinkDelivery delivery;
      delivery.src = uid;
      delivery.message_id = d.message_id;
      delivery.frag_index = d.header.frag_index;
      delivery.frag_count = d.frag_count;
      delivery.payload_bytes = d.payload_bytes;
      delivery.duplicate = duplicate;
      delivery.in_contention_slot = in_contention;
      deliveries_.push_back(delivery);
      if (sink_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::kDelivery;
        e.channel = obs::Channel::kReverse;
        e.uid = uid;
        e.slot = slot;
        e.a0 = d.payload_bytes;
        e.a1 = duplicate ? 1 : 0;
        e.a2 = in_contention ? 1 : 0;
        Emit(e);
      }
      if (sink_ != nullptr) {
        // Lifecycle stage: the fragment reached the base station.  The id
        // is rebuilt from the same (message_id, frag) key the reassembler
        // uses, so it matches the subscriber's emissions.
        obs::Event e;
        e.kind = obs::EventKind::kLifecycle;
        e.channel = obs::Channel::kReverse;
        e.uid = uid;
        e.slot = slot;
        e.a0 = obs::kStageDelivered;
        e.a1 = obs::DataLifecycleId(d.message_id, d.header.frag_index);
        e.a2 = duplicate ? 1 : 0;
        e.a3 = obs::kClassData;
        Emit(e);
      }
      break;
    }
    case PacketKind::kReservation: {
      const ReservationPacket& r = *packet->reservation;
      if (!uid_to_ein_.contains(r.src)) return;
      ++counters_.reservation_packets_received;
      const int want = std::min<int>(r.slots_requested, kMaxSlotsPerRequest);
      if (want > 0) demand_[r.src] = want;
      set_ack(r.src);
      if (sink_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::kReservation;
        e.channel = obs::Channel::kReverse;
        e.uid = r.src;
        e.slot = slot;
        e.a0 = want;
        Emit(e);
      }
      break;
    }
    case PacketKind::kRegistration: {
      ++counters_.registration_packets_received;
      HandleRegistration(*packet->registration, slot, is_last_slot);
      break;
    }
    case PacketKind::kDeregistration: {
      const DeregistrationPacket& d = *packet->deregistration;
      ++counters_.deregistrations_received;
      // Idempotent: the EIN is authoritative; ACK with the packet's uid so
      // the mobile knows the sign-off was heard even on a repeat.
      const auto it = ein_to_uid_.find(d.ein);
      if (it != ein_to_uid_.end() && it->second == d.src) SignOff(d.src);
      set_ack(d.src);
      break;
    }
    case PacketKind::kForwardAck: {
      const ForwardAckPacket& a = *packet->forward_ack;
      const UserId uid = a.header.src;
      if (!uid_to_ein_.contains(uid)) return;
      ++counters_.forward_acks_received;
      if (config_.downlink_arq) {
        for (int i = 0; i < a.count; ++i) {
          const ForwardAckEntry& e = a.acks[static_cast<std::size_t>(i)];
          unacked_forward_.erase(
              {uid, (static_cast<std::uint32_t>(e.message_id_low) << 8) | e.frag_index});
        }
      }
      const int more = std::min<int>(a.header.more_slots, kMaxSlotsPerRequest);
      if (more > 0) {
        demand_[uid] = more;
      } else {
        demand_.erase(uid);
      }
      set_ack(uid);
      break;
    }
  }
}

void BaseStation::HandleRegistration(const RegistrationPacket& reg, int /*slot*/,
                                     bool is_last_slot) {
  RegistrationGrant grant;
  grant.ein = reg.ein;

  const auto emit_registration = [this, &reg](std::int64_t code, UserId uid) {
    if (sink_ == nullptr) return;  // skip even building the Event
    obs::Event e;
    e.kind = obs::EventKind::kRegistration;
    e.channel = obs::Channel::kReverse;
    e.uid = uid;
    e.a0 = code;
    e.a1 = reg.ein;
    Emit(e);
  };

  const auto existing = ein_to_uid_.find(reg.ein);
  if (existing != ein_to_uid_.end()) {
    // Already registered (the grant announcement was lost): re-grant.
    grant.user_id = existing->second;
    emit_registration(obs::kRegRegrant, grant.user_id);
  } else {
    // Allocate the lowest free user ID.
    UserId uid = kNoUser;
    for (UserId candidate = 0; candidate < kMaxActiveUsers; ++candidate) {
      if (!uid_to_ein_.contains(candidate)) {
        uid = candidate;
        break;
      }
    }
    if (uid == kNoUser) {
      ++counters_.registrations_rejected;  // cell full; silence
      emit_registration(obs::kRegRejected, kNoUser);
      return;
    }
    if (reg.wants_gps) {
      if (gps_.active_count() >= config_.max_gps_users ||
          !gps_.Admit(uid).has_value()) {
        ++counters_.registrations_rejected;  // all GPS slots taken
        emit_registration(obs::kRegRejected, kNoUser);
        return;
      }
      gps_users_.insert(uid);
    }
    ein_to_uid_[reg.ein] = uid;
    uid_to_ein_[uid] = reg.ein;
    paging_.erase(reg.ein);
    ++counters_.registrations_approved;
    grant.user_id = uid;
    emit_registration(obs::kRegApproved, uid);
    // Deliver messages that were waiting for this EIN to register.
    const auto buffered = paging_buffer_.find(reg.ein);
    if (buffered != paging_buffer_.end()) {
      for (int bytes : buffered->second) {
        const std::uint32_t id = next_forward_msg_id_++;
        if (EnqueueDownlink(uid, id, bytes)) {
          ++counters_.messages_forwarded_local;
          forwarded_.push_back({id, uid, bytes});
        }
      }
      paging_buffer_.erase(buffered);
    }
  }

  if (is_last_slot) {
    late_grant_ = grant;
  } else {
    grant_queue_.push_back(grant);
  }
}

bool BaseStation::EnqueueDownlink(UserId dest, std::uint32_t message_id, int bytes) {
  if (!uid_to_ein_.contains(dest) || bytes <= 0) return false;
  auto& queue = downlink_[dest];
  const int frags = (bytes + kPacketPayloadBytes - 1) / kPacketPayloadBytes;
  if (static_cast<int>(queue.size()) + frags > kDownlinkQueuePackets) {
    ++counters_.downlink_dropped;
    return false;
  }
  for (int i = 0; i < frags; ++i) {
    ForwardDataPacket p;
    p.dest = dest;
    p.message_id = message_id;
    p.frag_index = static_cast<std::uint8_t>(i);
    p.frag_count = static_cast<std::uint8_t>(frags);
    p.payload_bytes = static_cast<std::uint16_t>(
        i + 1 < frags ? kPacketPayloadBytes : bytes - kPacketPayloadBytes * (frags - 1));
    queue.push_back(p);
  }
  return true;
}

void BaseStation::Page(Ein ein) {
  if (!ein_to_uid_.contains(ein)) paging_.insert(ein);
}

std::optional<ForwardDataPacket> BaseStation::DownlinkPacketForSlot(int s) {
  std::optional<ForwardDataPacket>& slot = forward_slot_packets_[static_cast<std::size_t>(s)];
  if (!slot.has_value()) return std::nullopt;
  const ForwardDataPacket p = *slot;
  slot.reset();
  ++counters_.forward_packets_sent;
  if (config_.downlink_arq) {
    const std::uint32_t key = ((p.message_id & 0xFFFFu) << 8) | p.frag_index;
    UnackedForward entry;
    entry.packet = p;
    entry.sent_cycle = cycle_counter_;
    const auto carry = arq_retries_carry_.find({p.dest, key});
    if (carry != arq_retries_carry_.end()) {
      entry.retries = carry->second;
      arq_retries_carry_.erase(carry);
    }
    unacked_forward_[{p.dest, key}] = entry;
  }
  return p;
}

void BaseStation::RouteCompleteMessage(UserId src, Ein dest_ein, int bytes) {
  if (ein_to_uid_.contains(dest_ein)) {
    DeliverToEin(dest_ein, bytes);
    return;
  }
  if (backbone_router_ && backbone_router_(src, dest_ein, bytes)) {
    ++counters_.messages_forwarded_backbone;
    return;
  }
  DeliverToEin(dest_ein, bytes);  // pages + buffers locally
}

bool BaseStation::DeliverToEin(Ein ein, int bytes) {
  const auto local = ein_to_uid_.find(ein);
  if (local != ein_to_uid_.end()) {
    const std::uint32_t id = next_forward_msg_id_++;
    if (EnqueueDownlink(local->second, id, bytes)) {
      ++counters_.messages_forwarded_local;
      forwarded_.push_back({id, local->second, bytes});
    }
    return true;
  }
  // Not registered: page it and hold the message until it registers.
  auto& buffer = paging_buffer_[ein];
  if (static_cast<int>(buffer.size()) >= config_.forward_buffer_messages) {
    ++counters_.forward_buffer_drops;
    return false;
  }
  buffer.push_back(bytes);
  ++counters_.messages_buffered_for_paging;
  Page(ein);
  return true;
}

std::optional<UserId> BaseStation::UserIdForEin(Ein ein) const {
  const auto it = ein_to_uid_.find(ein);
  if (it == ein_to_uid_.end()) return std::nullopt;
  return it->second;
}

std::vector<BaseStation::ForwardedMessage> BaseStation::TakeForwardedMessages() {
  std::vector<ForwardedMessage> out;
  out.swap(forwarded_);
  return out;
}

void BaseStation::SignOff(UserId uid) {
  const auto it = uid_to_ein_.find(uid);
  if (it == uid_to_ein_.end()) return;
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kSignOff;
    e.uid = uid;
    e.a0 = it->second;
    Emit(e);
  }
  ein_to_uid_.erase(it->second);
  uid_to_ein_.erase(it);
  if (gps_users_.contains(uid)) {
    gps_users_.erase(uid);
    const std::optional<GpsSlotManager::Move> move = gps_.Release(uid);
    if (move.has_value() && sink_ != nullptr) {
      // Rule R3 consolidated the schedule: a mid-lifecycle GPS user moved.
      obs::Event e;
      e.kind = obs::EventKind::kGpsSlotShift;
      e.uid = move->user;
      e.slot = move->to_slot;
      e.a0 = move->from_slot;
      e.a1 = move->to_slot;
      Emit(e);
    }
  }
  demand_.erase(uid);
  downlink_.erase(uid);
  seen_frags_.erase(uid);
  gps_consecutive_misses_.erase(uid);
  std::erase_if(reassembly_, [uid](const auto& kv) { return kv.first.first == uid; });
  std::erase_if(unacked_forward_, [uid](const auto& kv) { return kv.first.first == uid; });
  std::erase_if(arq_retries_carry_, [uid](const auto& kv) { return kv.first.first == uid; });
}

}  // namespace osumac::mac
