#include "mac/subscriber.h"

#include <algorithm>
#include <array>
#include <bit>
#include "common/check.h"

namespace osumac::mac {

namespace {
/// With this many packets queued (or fewer) and no grant, a subscriber sends
/// the data packet itself in a contention slot instead of a reservation
/// request (Section 3.1, option 3).
constexpr int kDirectDataContentionThreshold = 1;
}  // namespace

MobileSubscriber::MobileSubscriber(int node_index, Ein ein, bool wants_gps,
                                   const MacConfig& config, Rng rng)
    : node_index_(node_index), ein_(ein), wants_gps_(wants_gps), config_(config),
      rng_(std::move(rng)) {}

void MobileSubscriber::EmitContend(std::int64_t code, int slot) {
  if (sink_ == nullptr) return;  // skip even building the Event
  obs::Event e;
  e.kind = obs::EventKind::kContend;
  e.channel = obs::Channel::kReverse;
  e.node = node_index_;
  e.uid = uid_;
  e.slot = slot;
  e.a0 = code;
  Emit(e);
}

void MobileSubscriber::EmitRetransmit() {
  if (sink_ == nullptr) return;  // skip even building the Event
  obs::Event e;
  e.kind = obs::EventKind::kRetransmit;
  e.node = node_index_;
  e.uid = uid_;
  Emit(e);
}

void MobileSubscriber::EmitLifecycle(std::int64_t stage, std::int64_t id,
                                     std::int64_t detail, int slot, Interval span,
                                     std::int64_t cls) {
  if (sink_ == nullptr || id == 0) return;
  obs::Event e;
  e.kind = obs::EventKind::kLifecycle;
  e.channel = obs::Channel::kReverse;
  e.node = node_index_;
  e.uid = uid_;
  e.slot = slot;
  e.span = span;
  e.a0 = stage;
  e.a1 = id;
  e.a2 = detail;
  e.a3 = cls;
  Emit(e);
}

std::int64_t MobileSubscriber::TakeGpsLifecycleInSlot(int slot) {
  if (gps_tx_slot_ != slot || gps_tx_lifecycle_ == 0) return 0;
  const std::int64_t id = gps_tx_lifecycle_;
  gps_tx_lifecycle_ = 0;
  gps_tx_slot_ = -1;
  return id;
}

std::int64_t MobileSubscriber::LifecycleInSlot(int slot) const {
  for (const InFlight& f : in_flight_) {
    if (f.slot == slot) return f.pkt.lifecycle;
  }
  if (contention_attempt_.has_value() && contention_attempt_->slot == slot &&
      contention_attempt_->packet.has_value()) {
    return contention_attempt_->packet->lifecycle;
  }
  return 0;
}

void MobileSubscriber::PowerOn() {
  if (state_ == State::kOff || state_ == State::kGivenUp) {
    state_ = State::kSyncing;
    // A power cycle resets the registration attempt budget (the paper's
    // "pre-determined number of attempts" is per power-on session).
    registration_attempts_ = 0;
    registration_first_attempt_cycle_.reset();
    registration_attempt_outstanding_ = false;
  }
}

void MobileSubscriber::PowerOff() {
  // Lifecycle terminals first, while uid_ is still meaningful: in-flight
  // and contention packets are discarded here (the queue survives a power
  // cycle, so queued packets stay open).
  for (const InFlight& f : in_flight_) {
    EmitLifecycle(obs::kStageDropped, f.pkt.lifecycle, obs::kDropPowerOff);
  }
  if (contention_attempt_.has_value() && contention_attempt_->packet.has_value()) {
    EmitLifecycle(obs::kStageDropped, contention_attempt_->packet->lifecycle,
                  obs::kDropPowerOff);
  }
  if (gps_lc_current_.has_value()) {
    EmitLifecycle(obs::kStageDropped, gps_lc_current_->id, obs::kDropPowerOff,
                  -1, {0, 0}, obs::kClassGps);
  }
  if (gps_lc_prev_.has_value()) {
    EmitLifecycle(obs::kStageDropped, gps_lc_prev_->id, obs::kDropPowerOff,
                  -1, {0, 0}, obs::kClassGps);
  }
  if (gps_tx_lifecycle_ != 0) {
    // A report on the air when the unit dies: its slot resolution will find
    // no lifecycle to close, so close it here.
    EmitLifecycle(obs::kStageDropped, gps_tx_lifecycle_, obs::kDropPowerOff,
                  gps_tx_slot_, {0, 0}, obs::kClassGps);
  }
  gps_lc_current_.reset();
  gps_lc_prev_.reset();
  gps_tx_lifecycle_ = 0;
  gps_tx_slot_ = -1;
  state_ = State::kOff;
  uid_ = kNoUser;
  gps_slot_.reset();
  in_flight_.clear();
  contention_attempt_.reset();
  forward_slots_mine_ = 0;
  registration_attempts_ = 0;
  registration_first_attempt_cycle_.reset();
  registration_attempt_outstanding_ = false;
  bs_demand_estimate_ = 0;
  listen_second_cf_ = false;
  listen_second_next_ = false;
  current_cf_.reset();
  granted_this_cycle_ = 0;
  signoff_requested_ = false;
  signoff_attempts_ = 0;
  signoff_attempt_.reset();
  pending_fwd_acks_.clear();
  acks_in_flight_.clear();
}

void MobileSubscriber::OnCycleStart(std::uint16_t cycle, Tick cycle_start) {
  cycle_ = cycle;
  cycle_start_ = cycle_start;
  ++cycle_counter_;
  listen_second_cf_ = listen_second_next_;
  listen_second_next_ = false;
  granted_this_cycle_ = 0;
  current_cf_.reset();  // this cycle's CF has not arrived yet
  radio_.Forget(cycle_start);
}

bool MobileSubscriber::IsListening() const {
  return state_ == State::kSyncing || state_ == State::kRegistering ||
         state_ == State::kActive;
}

void MobileSubscriber::OnControlFields(const ControlFields& cf, Tick cycle_start,
                                       std::vector<PlannedBurst>& bursts) {
  // Paged while inactive: wake up and register.
  if (state_ == State::kOff) {
    for (int i = 0; i < cf.paged_count; ++i) {
      if (cf.paging[static_cast<std::size_t>(i)] == ein_) {
        state_ = State::kRegistering;
        break;
      }
    }
    if (state_ == State::kOff) return;
  }

  // Record the reception we just performed.
  const Interval cf_interval =
      listen_second_cf_
          ? Interval{cycle_start + ForwardCycleLayout::Preamble2().begin,
                     cycle_start + ForwardCycleLayout::ControlFields2().end}
          : Interval{cycle_start + ForwardCycleLayout::Preamble().begin,
                     cycle_start + ForwardCycleLayout::ControlFields1().end};
  radio_.CommitReceive(cf_interval);

  if (state_ == State::kSyncing) state_ = State::kRegistering;

  ProcessAcks(cf, cycle_start);
  ProcessGrantsAndSchedule(cf);
  current_cf_ = cf;
  PlanTransmissions(cf, cycle_start, bursts);
}

void MobileSubscriber::OnControlFieldsMissed() {
  ++stats_.cf_missed;
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kCfMissed;
    e.channel = obs::Channel::kForward;
    e.node = node_index_;
    e.uid = uid_;
    Emit(e);
  }
  listen_second_next_ = false;  // silent this cycle, so CF1 next cycle
  forward_slots_mine_ = 0;
  current_cf_.reset();
  granted_this_cycle_ = 0;
  // Outcomes of last cycle's transmissions are unknowable: conservatively
  // retransmit everything (the base station deduplicates).
  for (auto it = in_flight_.rbegin(); it != in_flight_.rend(); ++it) {
    ++stats_.packets_retransmitted;
    EmitRetransmit();
    EmitLifecycle(obs::kStageRetry, it->pkt.lifecycle, it->pkt.attempts);
    queue_.push_front(it->pkt);
  }
  in_flight_.clear();
  if (contention_attempt_.has_value()) {
    if (contention_attempt_->packet.has_value()) {
      ++stats_.packets_retransmitted;
      EmitRetransmit();
      EmitLifecycle(obs::kStageRetry, contention_attempt_->packet->lifecycle,
                    contention_attempt_->packet->attempts);
      queue_.push_front(*contention_attempt_->packet);
    }
    contention_attempt_.reset();
  }
  registration_attempt_outstanding_ = false;  // persist next cycle
}

void MobileSubscriber::ProcessAcks(const ControlFields& cf, Tick /*cycle_start*/) {
  int last_acked_more = -1;

  std::vector<PendingPacket> requeue;
  for (const InFlight& f : in_flight_) {
    const UserId ack = f.is_last ? cf.late_ack
                                 : cf.reverse_acks[static_cast<std::size_t>(f.slot)];
    if (ack == uid_ && uid_ != kNoUser) {
      ++stats_.packets_delivered;
      stats_.payload_bytes_delivered += f.pkt.payload_bytes;
      EmitLifecycle(obs::kStageAcked, f.pkt.lifecycle, f.pkt.attempts, f.slot);
      stats_.packet_delay_cycles.Add(ToSeconds(f.slot_end - f.pkt.arrival_tick) /
                                     ToSeconds(kCycleTicks));
      auto out = frags_outstanding_.find(f.pkt.message_id);
      if (out != frags_outstanding_.end() && --out->second == 0) {
        stats_.message_delay_cycles.Add(
            ToSeconds(f.slot_end - message_arrival_.at(f.pkt.message_id)) /
            ToSeconds(kCycleTicks));
        frags_outstanding_.erase(out);
        message_arrival_.erase(f.pkt.message_id);
      }
      last_acked_more = f.more_slots;
    } else {
      ++stats_.packets_retransmitted;
      EmitRetransmit();
      EmitLifecycle(obs::kStageRetry, f.pkt.lifecycle, f.pkt.attempts, f.slot);
      requeue.push_back(f.pkt);
    }
  }
  in_flight_.clear();
  for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) queue_.push_front(*it);
  if (last_acked_more >= 0) bs_demand_estimate_ = last_acked_more;

  // Downlink-ARQ ack packets: if the base station heard them, the covered
  // entries are settled; otherwise they return to the pending list.
  for (const AckInFlight& f : acks_in_flight_) {
    const UserId ack = f.is_last ? cf.late_ack
                                 : cf.reverse_acks[static_cast<std::size_t>(f.slot)];
    if (ack == uid_ && uid_ != kNoUser) continue;  // settled
    for (const ForwardAckEntry& e : f.entries) {
      if (std::find(pending_fwd_acks_.begin(), pending_fwd_acks_.end(), e) ==
          pending_fwd_acks_.end()) {
        if (pending_fwd_acks_.empty()) oldest_pending_ack_cycle_ = cycle_counter_ - 2;
        pending_fwd_acks_.push_back(e);  // unheard: retry promptly
      }
    }
  }
  acks_in_flight_.clear();

  // In-band sign-off: acknowledged means we can power down.
  if (signoff_attempt_.has_value()) {
    const ContentionAttempt& a = *signoff_attempt_;
    const UserId ack = a.in_last_slot
                           ? cf.late_ack
                           : cf.reverse_acks[static_cast<std::size_t>(a.slot)];
    signoff_attempt_.reset();
    if (ack == uid_ && uid_ != kNoUser) {
      PowerOff();
      return;
    }
    if (signoff_attempts_ >= 8) {
      PowerOff();  // give up gracefully; the base station will time us out
      return;
    }
  }

  if (contention_attempt_.has_value()) {
    const ContentionAttempt& a = *contention_attempt_;
    const UserId ack = a.in_last_slot
                           ? cf.late_ack
                           : cf.reverse_acks[static_cast<std::size_t>(a.slot)];
    const bool acked = ack == uid_ && uid_ != kNoUser;
    switch (a.kind) {
      case PacketKind::kReservation:
        if (acked) {
          bs_demand_estimate_ = a.requested;
          if (reservation_first_attempt_.has_value()) {
            stats_.reservation_latency_cycles.Add(
                static_cast<double>(cycle_counter_ - *reservation_first_attempt_));
            reservation_first_attempt_.reset();
          }
        } else {
          backoff_until_cycle_ = static_cast<std::uint32_t>(
              cycle_counter_ + BackoffPolicy::ReservationBackoff(rng_));
        }
        break;
      case PacketKind::kData:
        if (acked) {
          const InFlight synthetic{a.slot, a.in_last_slot, *a.packet, 0, a.requested};
          ++stats_.packets_delivered;
          stats_.payload_bytes_delivered += synthetic.pkt.payload_bytes;
          EmitLifecycle(obs::kStageAcked, synthetic.pkt.lifecycle,
                        synthetic.pkt.attempts, a.slot);
          // Decode happened at the contention slot's end last cycle; the
          // slot_end was recorded when the attempt was made.
          stats_.packet_delay_cycles.Add(
              ToSeconds(contention_slot_end_ - synthetic.pkt.arrival_tick) /
              ToSeconds(kCycleTicks));
          auto out = frags_outstanding_.find(synthetic.pkt.message_id);
          if (out != frags_outstanding_.end() && --out->second == 0) {
            stats_.message_delay_cycles.Add(
                ToSeconds(contention_slot_end_ -
                          message_arrival_.at(synthetic.pkt.message_id)) /
                ToSeconds(kCycleTicks));
            frags_outstanding_.erase(out);
            message_arrival_.erase(synthetic.pkt.message_id);
          }
          bs_demand_estimate_ = a.requested;
          if (reservation_first_attempt_.has_value()) {
            stats_.reservation_latency_cycles.Add(
                static_cast<double>(cycle_counter_ - *reservation_first_attempt_));
            reservation_first_attempt_.reset();
          }
        } else {
          ++stats_.packets_retransmitted;
          EmitRetransmit();
          EmitLifecycle(obs::kStageRetry, a.packet->lifecycle, a.packet->attempts,
                        a.slot);
          queue_.push_front(*a.packet);
          backoff_until_cycle_ = static_cast<std::uint32_t>(
              cycle_counter_ + BackoffPolicy::DataBackoff(rng_));
        }
        break;
      case PacketKind::kRegistration:
      case PacketKind::kDeregistration:
      case PacketKind::kForwardAck:
        break;  // handled elsewhere / never stored here
    }
    contention_attempt_.reset();
  }
}

void MobileSubscriber::ProcessGrantsAndSchedule(const ControlFields& cf) {
  if (state_ == State::kRegistering) {
    auto adopt = [&](const RegistrationGrant& g) {
      if (g.ein != ein_) return false;
      uid_ = g.user_id;
      state_ = State::kActive;
      if (registration_first_attempt_cycle_.has_value()) {
        stats_.registration_latency_cycles.Add(static_cast<double>(
            cycle_counter_ - *registration_first_attempt_cycle_));
      }
      registration_attempt_outstanding_ = false;
      return true;
    };
    for (int i = 0; i < cf.grant_count && state_ == State::kRegistering; ++i) {
      adopt(cf.grants[static_cast<std::size_t>(i)]);
    }
    if (state_ == State::kRegistering && cf.late_grant.has_value()) {
      adopt(*cf.late_grant);
    }
    if (state_ == State::kRegistering) {
      registration_attempt_outstanding_ = false;  // lost/rejected: persist
    }
  }

  // GPS slot discovery / re-assignment (rules R1-R3 are applied at the base
  // station; we simply follow the announced schedule).
  if (state_ == State::kActive && wants_gps_) {
    gps_slot_.reset();
    for (int i = 0; i < kMaxGpsSlots; ++i) {
      if (cf.gps_schedule[static_cast<std::size_t>(i)] == uid_) {
        gps_slot_ = i;
        break;
      }
    }
  }
}

void MobileSubscriber::PlanTransmissions(const ControlFields& cf, Tick cycle_start,
                                         std::vector<PlannedBurst>& bursts) {
  const ReverseCycleLayout layout(FormatOf(cf));

  // --- forward receive commitments ----------------------------------------
  forward_slots_mine_ = 0;
  if (state_ == State::kActive) {
    std::uint64_t scheduled = 0;
    for (int s = 0; s < kForwardDataSlots; ++s) {
      scheduled |= std::uint64_t{cf.forward_schedule[static_cast<std::size_t>(s)] == uid_}
                   << s;
    }
    // Ascending slot order keeps the radio's commitments (and their trace
    // events) in time order.
    for (; scheduled != 0; scheduled &= scheduled - 1) {
      const int s = std::countr_zero(scheduled);
      const Interval abs = {cycle_start + ForwardCycleLayout::DataSlot(s).begin,
                            cycle_start + ForwardCycleLayout::DataSlot(s).end};
      // Defensive: skip a slot that already passed (possible only if the
      // base station mistakenly assigned slot 0 to a CF2 listener).
      if (!radio_.CanReceive(abs)) continue;
      forward_slots_mine_ |= std::uint64_t{1} << s;
      radio_.CommitReceive(abs);
    }
  }

  // --- GPS report ------------------------------------------------------------
  if (state_ == State::kActive && wants_gps_ && gps_slot_.has_value()) {
    const Interval slot_abs = {cycle_start + layout.GpsSlot(*gps_slot_).begin,
                               cycle_start + layout.GpsSlot(*gps_slot_).end};
    // The GPS unit produces one fix per cycle; transmit the freshest fix
    // available when the slot starts (this cycle's if it arrives in time,
    // otherwise the previous cycle's).
    std::optional<Tick> fix = gps_report_ready_;
    bool used_prev_fix = false;
    if (fix.has_value() && *fix > slot_abs.begin) {
      if (*fix - kCycleTicks >= 0) {
        fix = *fix - kCycleTicks;
        used_prev_fix = true;
      } else {
        fix.reset();  // no earlier fix exists yet
      }
    }
    if (fix.has_value() && radio_.CanTransmit(slot_abs)) {
      GpsPacket report;
      report.ein = ein_;
      report.latitude = static_cast<std::uint32_t>(rng_.UniformInt(0, 0xFFFFFF));
      report.longitude = static_cast<std::uint32_t>(rng_.UniformInt(0, 0xFFFFFF));
      report.timestamp = static_cast<std::uint8_t>(cycle_ & 0xFF);
      PlannedBurst burst;
      burst.is_gps_slot = true;
      burst.slot = *gps_slot_;
      burst.info = SerializeGpsPacket(report);
      bursts.push_back(burst);
      radio_.CommitTransmit(slot_abs);
      ++stats_.gps_reports_sent;
      const double access_seconds = ToSeconds(slot_abs.begin - *fix);
      stats_.gps_access_delay_seconds.Add(access_seconds);
      if (slo_ != nullptr) {
        slo_->Observe(obs::SloClass::kGpsAccess, access_seconds);
      }
      gps_report_ready_.reset();
      // Lifecycle hand-off mirrors the fix selection above.  With the
      // previous fix on the air, this cycle's fix lives on — it is exactly
      // what next cycle transmits.  With this cycle's fix on the air, an
      // unsent previous fix is superseded by the fresher one.
      std::optional<GpsLifecycle>& chosen =
          used_prev_fix ? gps_lc_prev_ : gps_lc_current_;
      if (chosen.has_value()) {
        gps_tx_lifecycle_ = chosen->id;
        gps_tx_slot_ = *gps_slot_;
        EmitLifecycle(obs::kStageSlotTx, chosen->id, 1, *gps_slot_, slot_abs,
                      obs::kClassGps);
        chosen.reset();
      }
      if (!used_prev_fix && gps_lc_prev_.has_value()) {
        EmitLifecycle(obs::kStageDropped, gps_lc_prev_->id, obs::kDropSuperseded,
                      -1, {0, 0}, obs::kClassGps);
        gps_lc_prev_.reset();
      }
    }
  }

  // --- granted data slots ----------------------------------------------------
  // GPS users may also carry data (dual-role extension: a bus's onboard
  // data terminal); their data path is identical except that they never
  // use the last data slot — listening to CF2 there would conflict with
  // their early-cycle GPS transmission.
  int granted = 0;
  std::array<int, kMaxReverseDataSlots> my_slots{};
  if (state_ == State::kActive) {
    for (int i = 0; i < layout.data_slot_count(); ++i) {
      if (cf.reverse_schedule[static_cast<std::size_t>(i)] != uid_) continue;
      if (wants_gps_ && i == layout.last_data_slot()) continue;  // see above
      my_slots[static_cast<std::size_t>(granted++)] = i;
    }
    granted_this_cycle_ = granted;
    bs_demand_estimate_ = std::max(0, bs_demand_estimate_ - granted);

    // Downlink ARQ: pending forward ACKs take the leading granted slots
    // (up to the number of packets needed), the rest carry data.
    int ack_slots = 0;
    if (config_.downlink_arq && ShouldSendAcks()) {
      const int needed = (static_cast<int>(pending_fwd_acks_.size()) + kMaxForwardAcks - 1) /
                         kMaxForwardAcks;
      ack_slots = std::min(needed, granted);
      for (int k = 0; k < ack_slots; ++k) {
        const int slot = my_slots[static_cast<std::size_t>(k)];
        bursts.push_back(MakeAckBurst(slot, layout, cycle_start));
        // The covered entries wait in acks_in_flight_; drop them from the
        // pending list so the next packet covers the remainder.
        const std::size_t covered = acks_in_flight_.back().entries.size();
        pending_fwd_acks_.erase(pending_fwd_acks_.begin(),
                                pending_fwd_acks_.begin() +
                                    static_cast<std::ptrdiff_t>(covered));
        ++stats_.packets_sent;
      }
    }

    const int data_capacity = granted - ack_slots;
    const int sendable = std::min<int>(data_capacity, static_cast<int>(queue_.size()));
    const int remaining_after = static_cast<int>(queue_.size()) - sendable;
    const int more = std::min(remaining_after, 31);
    for (int k = 0; k < sendable; ++k) {
      const int slot = my_slots[static_cast<std::size_t>(ack_slots + k)];
      PendingPacket pkt = queue_.front();
      queue_.pop_front();
      ++pkt.attempts;

      PlannedBurst burst;
      burst.is_gps_slot = false;
      burst.slot = slot;
      burst.info = SerializeDataPacket(MakeDataPacket(pkt, more));
      bursts.push_back(burst);

      const Interval abs = {cycle_start + layout.DataSlot(slot).begin,
                            cycle_start + layout.DataSlot(slot).end};
      radio_.CommitTransmit(abs);
      ++stats_.packets_sent;
      EmitLifecycle(obs::kStageGrantRx, pkt.lifecycle, slot, slot);
      EmitLifecycle(obs::kStageSlotTx, pkt.lifecycle, pkt.attempts, slot, abs);
      if (slo_ != nullptr && pkt.attempts == 1) {
        slo_->Observe(obs::SloClass::kDataAccess,
                      ToSeconds(abs.begin - pkt.arrival_tick));
      }
      in_flight_.push_back(InFlight{slot, slot == layout.last_data_slot(), pkt,
                                    abs.end, more});
      if (slot == layout.last_data_slot()) listen_second_next_ = true;
    }
  }

  // --- contention --------------------------------------------------------------
  const Tick planning_time =
      cycle_start + (listen_second_cf_ ? ForwardCycleLayout::ControlFields2().end
                                       : ForwardCycleLayout::ControlFields1().end);

  // In-band sign-off: persists in contention slots like a registration.
  if (state_ == State::kActive && signoff_requested_ && !signoff_attempt_.has_value()) {
    const std::optional<int> slot = PickContentionSlot(cf, cycle_start, layout, planning_time);
    if (slot.has_value()) {
      DeregistrationPacket dereg;
      dereg.src = uid_;
      dereg.ein = ein_;
      PlannedBurst burst;
      burst.is_gps_slot = false;
      burst.slot = *slot;
      burst.info = SerializeDeregistrationPacket(dereg);
      bursts.push_back(burst);
      const Interval abs = {cycle_start + layout.DataSlot(*slot).begin,
                            cycle_start + layout.DataSlot(*slot).end};
      radio_.CommitTransmit(abs);
      ++signoff_attempts_;
      EmitContend(obs::kContendSignOff, *slot);
      ContentionAttempt attempt;
      attempt.kind = PacketKind::kDeregistration;
      attempt.slot = *slot;
      attempt.in_last_slot = *slot == layout.last_data_slot();
      signoff_attempt_ = attempt;
      if (attempt.in_last_slot) listen_second_next_ = true;
    }
    return;  // a leaving user sends nothing else
  }

  if (state_ == State::kRegistering &&
      registration_attempts_ < config_.max_registration_attempts) {
    const std::optional<int> slot =
        PickContentionSlot(cf, cycle_start, layout, planning_time);
    if (slot.has_value()) {
      RegistrationPacket reg;
      reg.ein = ein_;
      reg.wants_gps = wants_gps_;
      PlannedBurst burst;
      burst.is_gps_slot = false;
      burst.slot = *slot;
      burst.info = SerializeRegistrationPacket(reg);
      bursts.push_back(burst);

      const Interval abs = {cycle_start + layout.DataSlot(*slot).begin,
                            cycle_start + layout.DataSlot(*slot).end};
      radio_.CommitTransmit(abs);
      ++registration_attempts_;
      ++stats_.registration_attempts;
      EmitContend(obs::kContendRegistration, *slot);
      if (!registration_first_attempt_cycle_.has_value()) {
        registration_first_attempt_cycle_ = cycle_counter_;
      }
      registration_attempt_outstanding_ = true;
      ContentionAttempt attempt;
      attempt.kind = PacketKind::kRegistration;
      attempt.slot = *slot;
      attempt.in_last_slot = *slot == layout.last_data_slot();
      contention_attempt_ = attempt;
      if (attempt.in_last_slot) listen_second_next_ = true;
    }
  } else if (state_ == State::kRegistering &&
             registration_attempts_ >= config_.max_registration_attempts) {
    state_ = State::kGivenUp;
  } else if (state_ == State::kActive) {
    if (config_.downlink_arq && ShouldSendAcks() && granted == 0 &&
        acks_in_flight_.empty() && cycle_counter_ >= backoff_until_cycle_) {
      const std::optional<int> slot =
          PickContentionSlot(cf, cycle_start, layout, planning_time);
      if (slot.has_value()) {
        bursts.push_back(MakeAckBurst(*slot, layout, cycle_start));
        EmitContend(obs::kContendForwardAck, *slot);
        const std::size_t covered = acks_in_flight_.back().entries.size();
        pending_fwd_acks_.erase(pending_fwd_acks_.begin(),
                                pending_fwd_acks_.begin() +
                                    static_cast<std::ptrdiff_t>(covered));
      }
    } else {
      std::optional<PlannedBurst> burst = TryContendData(cf, cycle_start, planning_time);
      if (burst.has_value()) bursts.push_back(*burst);
    }
  }
}

std::optional<PlannedBurst> MobileSubscriber::MaybeLateContention(Tick now) {
  if (!current_cf_.has_value()) return std::nullopt;
  return TryContendData(*current_cf_, cycle_start_, now);
}

std::optional<PlannedBurst> MobileSubscriber::TryContendData(const ControlFields& cf,
                                                             Tick cycle_start,
                                                             Tick not_before) {
  if (state_ != State::kActive || queue_.empty() ||
      granted_this_cycle_ > 0 || bs_demand_estimate_ > 0 ||
      contention_attempt_.has_value() || cycle_counter_ < backoff_until_cycle_) {
    return std::nullopt;
  }
  const ReverseCycleLayout layout(FormatOf(cf));
  const std::optional<int> slot = PickContentionSlot(cf, cycle_start, layout, not_before);
  if (!slot.has_value()) return std::nullopt;

  const Interval abs = {cycle_start + layout.DataSlot(*slot).begin,
                        cycle_start + layout.DataSlot(*slot).end};
  ContentionAttempt attempt;
  attempt.slot = *slot;
  attempt.in_last_slot = *slot == layout.last_data_slot();
  contention_slot_end_ = abs.end;
  if (!reservation_first_attempt_.has_value()) {
    reservation_first_attempt_ = cycle_counter_;
  }

  PlannedBurst burst;
  burst.is_gps_slot = false;
  burst.slot = *slot;
  if (static_cast<int>(queue_.size()) <= kDirectDataContentionThreshold) {
    // Send the data packet itself; piggyback whatever remains.
    PendingPacket pkt = queue_.front();
    queue_.pop_front();
    ++pkt.attempts;
    const int more = std::min<int>(static_cast<int>(queue_.size()), 31);
    attempt.kind = PacketKind::kData;
    attempt.requested = more;
    attempt.packet = pkt;
    burst.info = SerializeDataPacket(MakeDataPacket(pkt, more));
    ++stats_.contention_data_sent;
    EmitLifecycle(obs::kStageSlotTx, pkt.lifecycle, pkt.attempts, *slot, abs);
    if (slo_ != nullptr && pkt.attempts == 1) {
      slo_->Observe(obs::SloClass::kDataAccess,
                    ToSeconds(abs.begin - pkt.arrival_tick));
    }
  } else {
    const int want =
        std::min<int>(static_cast<int>(queue_.size()), kMaxSlotsPerRequest);
    attempt.kind = PacketKind::kReservation;
    attempt.requested = want;
    ReservationPacket res;
    res.src = uid_;
    res.slots_requested = static_cast<std::uint8_t>(std::min(want, 255));
    burst.info = SerializeReservationPacket(res);
    ++stats_.reservation_packets_sent;
    // The reservation opens the queue head's path to a grant.
    EmitLifecycle(obs::kStageReservationTx, queue_.front().lifecycle, want, *slot);
  }
  radio_.CommitTransmit(abs);
  EmitContend(attempt.kind == PacketKind::kData ? obs::kContendData
                                                : obs::kContendReservation,
              *slot);
  contention_attempt_ = attempt;
  if (attempt.in_last_slot) listen_second_next_ = true;
  return burst;
}

std::optional<int> MobileSubscriber::PickContentionSlot(const ControlFields& cf,
                                                        Tick cycle_start,
                                                        const ReverseCycleLayout& layout,
                                                        Tick not_before) {
  std::array<int, kMaxReverseDataSlots> candidates{};
  int count = 0;
  for (int i = 0; i < layout.data_slot_count(); ++i) {
    if (cf.reverse_schedule[static_cast<std::size_t>(i)] != kNoUser) continue;
    if (!config_.use_second_control_field && i == layout.last_data_slot()) continue;
    if (wants_gps_ && i == layout.last_data_slot()) continue;  // keep CF1 + GPS slot
    const Interval abs = {cycle_start + layout.DataSlot(i).begin,
                          cycle_start + layout.DataSlot(i).end};
    if (abs.begin < not_before) continue;  // already on the air or passed
    if (!radio_.CanTransmit(abs)) continue;
    candidates[static_cast<std::size_t>(count++)] = i;
  }
  if (count == 0) return std::nullopt;
  return candidates[static_cast<std::size_t>(rng_.UniformInt(0, count - 1))];
}

PlannedBurst MobileSubscriber::MakeAckBurst(int slot, const ReverseCycleLayout& layout,
                                            Tick cycle_start) {
  ForwardAckPacket ack;
  ack.header.kind = PacketKind::kForwardAck;
  ack.header.src = uid_;
  ack.header.seq = static_cast<std::uint16_t>(next_seq_++ & 0x7FF);
  ack.header.more_slots =
      static_cast<std::uint8_t>(std::clamp<int>(static_cast<int>(queue_.size()), 0, 31));
  AckInFlight in_flight;
  in_flight.slot = slot;
  in_flight.is_last = slot == layout.last_data_slot();
  const int n = std::min<int>(kMaxForwardAcks, static_cast<int>(pending_fwd_acks_.size()));
  for (int i = 0; i < n; ++i) {
    ack.acks[static_cast<std::size_t>(i)] = pending_fwd_acks_[static_cast<std::size_t>(i)];
    in_flight.entries.push_back(pending_fwd_acks_[static_cast<std::size_t>(i)]);
  }
  ack.count = n;
  const bool is_last = in_flight.is_last;
  acks_in_flight_.push_back(std::move(in_flight));

  PlannedBurst burst;
  burst.is_gps_slot = false;
  burst.slot = slot;
  burst.info = SerializeForwardAckPacket(ack);
  const Interval abs = {cycle_start + layout.DataSlot(slot).begin,
                        cycle_start + layout.DataSlot(slot).end};
  radio_.CommitTransmit(abs);
  if (is_last) listen_second_next_ = true;
  return burst;
}

DataPacket MobileSubscriber::MakeDataPacket(const PendingPacket& p, int more_slots) {
  DataPacket d;
  d.header.kind = PacketKind::kData;
  d.header.src = uid_;
  d.header.seq = static_cast<std::uint16_t>(next_seq_++ & 0x7FF);
  d.dest_ein = p.dest_ein;
  d.header.more_slots = static_cast<std::uint8_t>(std::clamp(more_slots, 0, 31));
  d.header.frag_index = p.frag_index;
  d.message_id = p.message_id;
  d.frag_count = p.frag_count;
  d.payload_bytes = p.payload_bytes;
  return d;
}

bool MobileSubscriber::ExpectsForwardSlot(int slot) const {
  OSUMAC_DCHECK(slot >= 0 && slot < kForwardDataSlots);
  return ((forward_slots_mine_ >> slot) & 1) != 0;
}

void MobileSubscriber::RequestSignOff() {
  if (state_ == State::kActive) {
    signoff_requested_ = true;
  } else {
    PowerOff();
  }
}

void MobileSubscriber::OnForwardPacket(const ForwardDataPacket& packet) {
  ++stats_.forward_packets_received;
  if (config_.downlink_arq) {
    const ForwardAckEntry entry{static_cast<std::uint16_t>(packet.message_id & 0xFFFF),
                                packet.frag_index};
    if (std::find(pending_fwd_acks_.begin(), pending_fwd_acks_.end(), entry) ==
        pending_fwd_acks_.end()) {
      if (pending_fwd_acks_.empty()) oldest_pending_ack_cycle_ = cycle_counter_;
      pending_fwd_acks_.push_back(entry);
    }
  }
  forward_frag_counts_[packet.message_id] = packet.frag_count;
  auto& got = forward_frags_[packet.message_id];
  got.insert(packet.frag_index);
  if (static_cast<int>(got.size()) >= packet.frag_count) {
    completed_forward_messages_.push_back(packet.message_id);
    forward_frags_.erase(packet.message_id);
    forward_frag_counts_.erase(packet.message_id);
  }
}

std::vector<std::uint32_t> MobileSubscriber::TakeCompletedForwardMessages() {
  std::vector<std::uint32_t> out;
  out.swap(completed_forward_messages_);
  return out;
}

bool MobileSubscriber::EnqueueMessage(std::uint32_t message_id, int bytes, Tick now,
                                      Ein dest_ein) {
  ++stats_.messages_enqueued;
  const int frags = (bytes + kPacketPayloadBytes - 1) / kPacketPayloadBytes;
  if (static_cast<int>(queue_.size()) + frags > config_.subscriber_queue_packets) {
    ++stats_.messages_dropped;
    return false;
  }
  for (int i = 0; i < frags; ++i) {
    PendingPacket p;
    p.message_id = message_id;
    p.dest_ein = dest_ein;
    p.frag_index = static_cast<std::uint8_t>(i);
    p.frag_count = static_cast<std::uint8_t>(frags);
    p.payload_bytes = static_cast<std::uint16_t>(
        i + 1 < frags ? kPacketPayloadBytes : bytes - kPacketPayloadBytes * (frags - 1));
    p.arrival_tick = now;
    if (sink_ != nullptr) {
      p.lifecycle = obs::DataLifecycleId(message_id, i);
      EmitLifecycle(obs::kStageGenerated, p.lifecycle, p.payload_bytes);
      EmitLifecycle(obs::kStageQueued, p.lifecycle,
                    static_cast<std::int64_t>(queue_.size()) + 1);
    }
    queue_.push_back(p);
  }
  frags_outstanding_[message_id] = frags;
  message_arrival_[message_id] = now;
  return true;
}

void MobileSubscriber::QueueGpsReport(Tick ready_tick) {
  // A newer location fix supersedes an unsent one; GPS reports are never
  // retransmitted or queued up (Section 2.1).
  if (sink_ != nullptr && wants_gps_) {
    if (gps_lc_prev_.has_value()) {
      // Two cycles unsent: the protocol keeps only one pending fix, so the
      // older life ends here.
      EmitLifecycle(obs::kStageDropped, gps_lc_prev_->id, obs::kDropSuperseded,
                    -1, {0, 0}, obs::kClassGps);
    }
    gps_lc_prev_ = gps_lc_current_;
    gps_lc_current_ =
        GpsLifecycle{obs::GpsLifecycleId(node_index_, ++gps_lc_seq_), ready_tick};
    EmitLifecycle(obs::kStageGenerated, gps_lc_current_->id, ready_tick, -1,
                  {0, 0}, obs::kClassGps);
  }
  gps_report_ready_ = ready_tick;
}

}  // namespace osumac::mac
