#include "mac/cell.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "mac/packet.h"
#include "obs/profiler.h"
#include "phy/phy_params.h"

namespace osumac::mac {

Cell::Cell(const CellConfig& config)
    : CellSubstrate(config),
      bs_(config.mac),
      check_clock_([this] { return sim_.now(); }),
      check_dump_([this] { return DumpState(); }) {
  OSUMAC_CHECK(config_.mac.min_contention_slots >= 1 &&
         "slot 0 must stay unassigned: it can conflict with the CF2 "
         "listener's reception window in format 2");
}

std::string Cell::DumpState() const {
  std::string out;
  out += "cell: cycle " + std::to_string(current_cycle());
  out += ", format " +
         std::string(bs_.current_format() == ReverseFormat::kFormat1 ? "1" : "2");
  out += ", subscribers " + std::to_string(subscriber_count());
  out += ", pending events " + std::to_string(sim_.pending_events());
  out += ", pending bursts " + std::to_string(reverse_channel_.pending_bursts());
  out += "\n  gps schedule:";
  for (UserId u : bs_.gps_manager().Schedule()) {
    out += ' ';
    out += (u == kNoUser ? std::string("-") : std::to_string(u));
  }
  out += "\n  reverse schedule:";
  for (UserId u : bs_.reverse_schedule()) {
    out += ' ';
    out += (u == kNoUser ? std::string("-") : std::to_string(u));
  }
  out += "\n  cf2 listener: ";
  out += (bs_.cf2_listener() == kNoUser ? std::string("-")
                                        : std::to_string(bs_.cf2_listener()));
  return out;
}

int Cell::AddSubscriber(bool wants_gps, std::optional<Ein> ein_override) {
  const int node = static_cast<int>(subscribers_.size());
  const Ein ein = ein_override.value_or(static_cast<Ein>(1000 + node));
  subscribers_.push_back(
      std::make_unique<MobileSubscriber>(node, ein, wants_gps, config_.mac, rng_.Fork()));
  AddNodeState(node, wants_gps);
  subscribers_.back()->SetSloMonitor(&slo_);
  if (trace_ != nullptr) {
    subscribers_.back()->SetEventSink(trace_);
    subscribers_.back()->radio().SetEventSink(trace_, node);
  }
  return node;
}

void Cell::AttachTrace(obs::EventTrace* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    trace_->SetClock([this] { return sim_.now(); });
    trace_->SetCycle(current_cycle());
  }
  bs_.SetEventSink(trace_);
  for (int node = 0; node < subscriber_count(); ++node) {
    subscriber(node).SetEventSink(trace_);
    subscriber(node).radio().SetEventSink(trace_, node);
  }
}

void Cell::EmitBurstTx(int node, const PlannedBurst& burst, Interval on_air) {
  if (trace_ == nullptr) return;  // skip even building the Event
  OSUMAC_PROFILE_ZONE("obs.emit");
  obs::Event e;
  e.kind = obs::EventKind::kBurstTx;
  e.channel = obs::Channel::kReverse;
  e.node = node;
  e.slot = burst.slot;
  e.span = on_air;
  e.a0 = burst.is_gps_slot ? 1 : 0;
  Emit(e);
}

void Cell::EmitSlotResolved(int slot, Interval abs, std::int64_t outcome,
                            bool assigned, bool designated_contention, bool is_gps) {
  if (trace_ == nullptr) return;  // skip even building the Event
  OSUMAC_PROFILE_ZONE("obs.emit");
  obs::Event e;
  e.kind = obs::EventKind::kSlotResolved;
  e.channel = obs::Channel::kReverse;
  e.slot = slot;
  e.span = abs;
  e.a0 = outcome;
  e.a1 = assigned ? 1 : 0;
  e.a2 = designated_contention ? 1 : 0;
  e.a3 = is_gps ? 1 : 0;
  Emit(e);
}

void Cell::PowerOn(int node) { subscriber(node).PowerOn(); }

void Cell::SignOff(int node) {
  MobileSubscriber& sub = subscriber(node);
  if (sub.user_id() != kNoUser) bs_.SignOff(sub.user_id());
  sub.PowerOff();
  // The node's service history ends here: gaps spanning the off period are
  // not SLO violations.
  last_paging_check_.erase(node);
  ForgetGpsDelivery(node);
}

void Cell::SetForwardModel(int node, std::unique_ptr<phy::SymbolErrorModel> model) {
  OSUMAC_CHECK(node >= 0 && node < subscriber_count());
  OSUMAC_CHECK(model != nullptr);
  forward_models_[static_cast<std::size_t>(node)] = std::move(model);
}

bool Cell::SendUplinkMessage(int node, int bytes) {
  metrics_.offered_bytes += bytes;
  ++metrics_.uplink_messages_offered;
  MobileSubscriber& sub = subscriber(node);
  const bool accepted = sub.EnqueueMessage(next_message_id_++, bytes, sim_.now());
  if (accepted) TransmitLateContention(node);
  return accepted;
}

void Cell::TransmitLateContention(int node) {
  const auto burst = subscriber(node).MaybeLateContention(sim_.now());
  if (!burst.has_value()) return;
  const Tick cycle_start = (sim_.now() / kCycleTicks) * kCycleTicks;
  const Interval rel = ReverseCycleLayout(bs_.current_format()).DataSlot(burst->slot);
  const Interval on_air{cycle_start + rel.begin, cycle_start + rel.end};
  EmitBurstTx(node, *burst, on_air);
  TransmitBurst(reverse_channel_, node, on_air, data_code_, burst->info);
}

bool Cell::SendSubscriberMessage(int src_node, Ein dest_ein, int bytes) {
  metrics_.offered_bytes += bytes;
  ++metrics_.uplink_messages_offered;
  MobileSubscriber& sub = subscriber(src_node);
  const bool accepted =
      sub.EnqueueMessage(next_message_id_++, bytes, sim_.now(), dest_ein);
  if (accepted) TransmitLateContention(src_node);
  return accepted;
}

void Cell::RequestSignOff(int node) { subscriber(node).RequestSignOff(); }

bool Cell::SendDownlinkMessage(int node, int bytes) {
  const UserId uid = subscriber(node).user_id();
  if (uid == kNoUser) {
    bs_.Page(subscriber(node).ein());
    return false;
  }
  const std::uint32_t id = next_message_id_++;
  if (!bs_.EnqueueDownlink(uid, id, bytes)) return false;
  downlink_enqueue_tick_[id] = sim_.now();
  return true;
}

void Cell::ResetStats() {
  bs_.ResetCounters();
  for (auto& sub : subscribers_) sub->ResetStats();
  ResetSubstrateStats();
  // As for GPS gaps, a paging gap must not start before the window.
  last_paging_check_.clear();
}

void Cell::StartCycle(std::int64_t n) {
  OSUMAC_PROFILE_ZONE("cell.plan");
  const Tick T = n * kCycleTicks;
  OSUMAC_CHECK_EQ(sim_.now(), T);

  for (auto& sub : subscribers_) {
    sub->OnCycleStart(static_cast<std::uint16_t>(n & 0xFFFF), T);
  }

  // Events emitted from here on (including inside PlanCycle) belong to n.
  if (trace_ != nullptr) trace_->SetCycle(n);

  format_of_prev_ = bs_.current_format();
  cf1_ = bs_.PlanCycle(static_cast<std::uint16_t>(n & 0xFFFF));
  // The base station's format is authoritative: under the static-GPS-slot
  // policy it stays format 1 even when the announced GPS count alone would
  // imply format 2.
  const ReverseCycleLayout layout(bs_.current_format());

  ++metrics_.cycles;
  metrics_.capacity_bytes +=
      static_cast<std::int64_t>(layout.data_slot_count()) * kPacketPayloadBytes;

  if (trace_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kCycleStart;
    e.span = {T, T + kCycleTicks};
    e.a0 = bs_.current_format() == ReverseFormat::kFormat1 ? 1 : 2;
    e.a1 = layout.data_slot_count();
    e.a2 = bs_.contention_slots_this_cycle();
    e.a3 = static_cast<std::int64_t>(layout.data_slot_count()) * kPacketPayloadBytes;
    trace_->Record(e);
  }

  if (journal_ != nullptr && journal_->ShouldRecord(n)) JournalCycle(n);

  for (CellObserver* o : observers_) o->OnCyclePlanned(*this, cf1_, n, sim_.now());

  // Every slot event fires at the slot's last tick; Fire recomputes the
  // slot interval from the layout.  CF1 delivery at its last symbol.
  ScheduleAt(T + ForwardCycleLayout::ControlFields1().end, kCf1);

  // Resolution of the previous cycle's last reverse data slot (it overlaps
  // this cycle's CF1).
  if (n > 0) {
    const ReverseCycleLayout prev_layout(format_of_prev_);
    const int last = prev_layout.last_data_slot();
    ScheduleAt((n - 1) * kCycleTicks + prev_layout.DataSlot(last).end,
               kLastDataSlotOfPrev, last);
  }

  // CF2: finalized and delivered at its last symbol (the late ACK resolves
  // at T+11850/10230, well before).
  ScheduleAt(T + ForwardCycleLayout::ControlFields2().end, kCf2);

  // Forward slots: an event only for a slot that carries a packet; CF2
  // adds the events of the slots it assigns (see Fire).
  forward_seq_ = sim_.ReserveSeqs(kForwardDataSlots);
  for (int s = 0; s < kForwardDataSlots; ++s) {
    if (cf1_.forward_schedule[static_cast<std::size_t>(s)] != kNoUser) {
      ScheduleForwardSlot(T, s);
    }
  }
  for (int i = 0; i < layout.gps_slot_count(); ++i) {
    ScheduleAt(T + layout.GpsSlot(i).end, kGpsSlot, i);
  }
  // Reverse data slots except the last (deferred into the next cycle).
  for (int i = 0; i + 1 < layout.data_slot_count(); ++i) {
    ScheduleAt(T + layout.DataSlot(i).end, kDataSlot, i);
  }

  // GPS report generation (one fix per bus per cycle, at a fixed phase).
  // The ready time may lie later in the cycle: the unit transmits the
  // freshest fix available at its slot start, never a stale one.
  for (int node = 0; node < subscriber_count(); ++node) {
    if (!subscriber(node).is_gps()) continue;
    subscriber(node).QueueGpsReport(T + gps_phase_[static_cast<std::size_t>(node)]);
  }

  next_cycle_ = n + 1;
  ScheduleAt(T + kCycleTicks, kStartCycle);
}

void Cell::Fire(const sim::Event& event) {
  const int slot = event.index;
  // Slots of this cycle read its format from the base station: they all
  // end before the next PlanCycle replaces it.
  const ReverseCycleLayout layout(bs_.current_format());
  switch (event.kind) {
    case kStartCycle:
      return StartCycle(event.when / kCycleTicks);
    case kPerturbRng:
      (void)rng_.Next();
      if (!subscribers_.empty()) subscribers_.front()->PerturbRng();
      return;
    case kCf1:
      return DeliverControlFields(cf1_, /*second=*/false,
                                  event.when - ForwardCycleLayout::ControlFields1().end);
    case kCf2: {
      const Tick cycle_start = event.when - ForwardCycleLayout::ControlFields2().end;
      const ControlFields cf2 = bs_.SecondControlFields();
      for (int s = 0; s < kForwardDataSlots; ++s) {
        const auto i = static_cast<std::size_t>(s);
        if (cf2.forward_schedule[i] != kNoUser && cf1_.forward_schedule[i] == kNoUser) {
          ScheduleForwardSlot(cycle_start, s);
        }
      }
      return DeliverControlFields(cf2, /*second=*/true, cycle_start);
    }
    case kForwardSlot:
      return DeliverForwardSlot(slot,
                                EndingAt(event.when, ForwardCycleLayout::DataSlot(slot)));
    case kGpsSlot:
      return ResolveGpsSlot(slot, EndingAt(event.when, layout.GpsSlot(slot)));
    case kDataSlot:
      return ResolveDataSlot(slot, EndingAt(event.when, layout.DataSlot(slot)),
                             /*is_last_of_prev=*/false);
    case kLastDataSlotOfPrev:
      return ResolveDataSlot(
          slot, EndingAt(event.when, ReverseCycleLayout(format_of_prev_).DataSlot(slot)),
          /*is_last_of_prev=*/true);
  }
  OSUMAC_CHECK(false && "unknown cell event kind");
}

void Cell::ScheduleForwardSlot(Tick cycle_start, int slot) {
  sim_.ScheduleReservedAt(cycle_start + ForwardCycleLayout::DataSlot(slot).end,
                          forward_seq_ + static_cast<std::uint64_t>(slot), self_,
                          kForwardSlot, slot);
}

void Cell::JournalCycle(std::int64_t n) {
  // Slot grids: the schedules PlanCycle just fixed, plus the format and
  // control-field roles that define the cycle's geometry.
  obs::Digest64 grid;
  grid.Mix(static_cast<std::uint64_t>(bs_.current_format()));
  grid.MixSigned(bs_.contention_slots_this_cycle());
  grid.MixSigned(bs_.cf2_listener());
  for (const UserId u : bs_.reverse_schedule()) grid.MixSigned(u);
  for (const UserId u : bs_.forward_schedule()) grid.MixSigned(u);

  // Queues: registration and demand tables (std::map — deterministic key
  // order) plus every subscriber's state machine and uplink backlog.
  obs::Digest64 q;
  for (const auto& [uid, ein] : bs_.registered_users()) {
    q.MixSigned(uid);
    q.Mix(ein);
  }
  for (const auto& [uid, want] : bs_.demand()) {
    q.MixSigned(uid);
    q.MixSigned(want);
  }
  for (const auto& sub : subscribers_) {
    q.MixSigned(static_cast<std::int64_t>(sub->state()));
    q.MixSigned(sub->user_id());
    q.MixSigned(sub->queued_packets());
  }

  // Counters: the full base-station ledger and every subscriber's stats as
  // one keyed sum, then the substrate aggregates.  Subscriber k's fold
  // weighs DigestKey(row count of the base-station ledger + k), an index
  // no subscriber row uses, so its rows' keys stay distinct from every
  // other row's (tests/tracer_test.cc checks the first 64 subscribers).
  std::uint64_t ledgers = KeyedLedgerSum(kBsCounterFields, bs_.counters());
  std::uint64_t k = std::size(kBsCounterFields);
  for (const auto& sub : subscribers_) {
    ledgers += DigestKey(k++) * KeyedLedgerSum(kSubscriberCounterFields, sub->stats());
  }
  obs::Digest64 m;
  m.Mix(ledgers);
  m.Mix(JournalHashMetrics());
  AppendJournalRecord(n, grid.value(), q.value(), m.value());
}

void Cell::PerturbRngAt(std::int64_t cycle) {
  // +1 tick: the cycle's own plan (and its journal record) is built at the
  // cycle-start tick, so the perturbation provably cannot touch it.  The
  // injected stream is node 0's: subscriber RNGs drive backoff and
  // contention-slot picks every cycle, so the burn surfaces in the slot
  // grid regardless of the channel model (the substrate rng_ sits idle on
  // the channel path: error models keep private streams).
  ScheduleAt(cycle * kCycleTicks + 1, kPerturbRng);
}

void Cell::DeliverControlFields(const ControlFields& cf, bool second, Tick cycle_start) {
  OSUMAC_PROFILE_ZONE("cell.cf");
  const auto blocks = SerializeControlFields(cf);
  cf_codewords_.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    cf_codewords_[i].resize(static_cast<std::size_t>(data_code_.n()));
    data_code_.EncodeInto(blocks[i], cf_codewords_[i]);
  }

  const Interval body =
      second ? Interval{cycle_start + ForwardCycleLayout::Preamble2().begin,
                        cycle_start + ForwardCycleLayout::ControlFields2().end}
             : Interval{cycle_start, cycle_start + ForwardCycleLayout::ControlFields1().end};

  if (trace_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kCfDelivered;
    e.channel = obs::Channel::kForward;
    e.span = body;
    e.a0 = second ? 1 : 0;
    trace_->Record(e);
  }

  // The transmitted blocks are parsed at most once per delivery, on first
  // use: a receiver whose decoded blocks equal them byte for byte shares
  // that parse.  Any other decoded word gets a parse of its own, since a
  // miscorrection decodes cleanly yet carries garbage.
  bool sent_parsed = false;
  std::optional<ControlFields> sent_cf;

  const std::int64_t n = cycle_start / kCycleTicks;
  for (int node = 0; node < subscriber_count(); ++node) {
    MobileSubscriber& sub = subscriber(node);
    if (sub.listens_second_cf() != second) continue;
    bool paging_check = false;
    if (!sub.IsListening()) {
      // Inactive units wake periodically to check the paging field
      // (Section 2.1's one-minute checking delay budget).
      const bool paging_window =
          sub.state() == MobileSubscriber::State::kOff && !second &&
          (n + node) % config_.mac.inactive_listen_period_cycles == 0;
      if (!paging_window) continue;
      paging_check = true;
    } else {
      // Active service interrupts the inactive-check cadence: the next
      // off-state check must not be scored against time spent active.
      last_paging_check_.erase(node);
    }
    if (!sub.radio().CanReceive(body)) {
      // Physically unable (still transmitting): the schedule is lost on it.
      sub.OnControlFieldsMissed();
      continue;
    }

    // Each mobile sees its own downlink path.
    int corrected = 0;
    std::optional<ControlFields> own_cf;
    const ControlFields* parsed = nullptr;
    if (phy::ApplyChannelInto(cf_codewords_, data_code_, ForwardModelFor(node), rng_,
                              channel_scratch_, cf_decoded_, &corrected,
                              config_.erasure_side_information)) {
      if (std::ranges::equal(cf_decoded_[0], blocks[0]) &&
          std::ranges::equal(cf_decoded_[1], blocks[1])) {
        if (!sent_parsed) {
          sent_cf = ParseControlFields(blocks[0], blocks[1]);
          sent_parsed = true;
        }
        if (sent_cf.has_value()) parsed = &*sent_cf;
      } else {
        own_cf = ParseControlFields(cf_decoded_[0], cf_decoded_[1]);
        if (own_cf.has_value()) parsed = &*own_cf;
      }
    }
    if (parsed == nullptr) {
      sub.OnControlFieldsMissed();
      continue;
    }

    if (paging_check) {
      // A successful paging check: the checking delay is the gap between
      // consecutive decoded checks, so CF losses (fades) stretch it past
      // the nominal inactive_listen_period toward a budget miss.
      const auto [it, first_check] = last_paging_check_.emplace(node, sim_.now());
      if (!first_check) {
        slo_.Observe(obs::SloClass::kCheckingDelay, ToSeconds(sim_.now() - it->second));
        it->second = sim_.now();
      }
    }

    planned_.clear();
    sub.OnControlFields(*parsed, cycle_start, planned_);
    // Slot positions follow the same format convention the subscriber used
    // (static GPS policy pins both ends to format 1).
    const ReverseCycleLayout layout(config_.mac.dynamic_gps_slots
                                        ? parsed->Format()
                                        : ReverseFormat::kFormat1);
    for (const PlannedBurst& b : planned_) {
      const Interval rel = b.is_gps_slot ? layout.GpsSlot(b.slot) : layout.DataSlot(b.slot);
      const Interval on_air{cycle_start + rel.begin, cycle_start + rel.end};
      EmitBurstTx(node, b, on_air);
      TransmitBurst(reverse_channel_, node, on_air, b.is_gps_slot ? gps_code_ : data_code_,
                    b.info);
    }
  }

  for (CellObserver* o : observers_) {
    o->OnControlFieldsDelivered(*this, cf, second, cycle_start, sim_.now());
  }
}

void Cell::ResolveGpsSlot(int slot, Interval abs) {
  OSUMAC_PROFILE_ZONE("cell.slot.gps");
  const phy::SlotReception& reception = ResolveReverseSlot(reverse_channel_, abs, gps_code_);
  EmitSlotResolved(slot, abs, static_cast<std::int64_t>(reception.outcome),
                   /*assigned=*/bs_.gps_manager().OwnerOf(slot) != kNoUser,
                   /*designated_contention=*/false, /*is_gps=*/true);

  // Terminate the GPS report's lifecycle span and feed the inter-service
  // gap before the base station can mutate the slot schedule.  A fix is
  // never retransmitted — the next cycle carries a fresher one — so any
  // non-decode outcome is terminal for this report.
  const auto emit_gps_terminal = [&](int node, std::int64_t stage, std::int64_t detail) {
    const std::int64_t lc = subscriber(node).TakeGpsLifecycleInSlot(slot);
    if (lc == 0) return;
    obs::Event e;
    e.kind = obs::EventKind::kLifecycle;
    e.channel = obs::Channel::kReverse;
    e.node = node;
    e.uid = subscriber(node).user_id();
    e.slot = slot;
    e.span = abs;
    e.a0 = stage;
    e.a1 = lc;
    e.a2 = detail;
    e.a3 = obs::kClassGps;
    Emit(e);
  };
  switch (reception.outcome) {
    case phy::SlotOutcome::kDecoded:
      if (reception.sender >= 0) {
        emit_gps_terminal(reception.sender, obs::kStageDelivered, 0);
        ObserveGpsDelivery(reception.sender, abs.end);
      }
      break;
    case phy::SlotOutcome::kDecodeFailure:
      if (reception.sender >= 0) {
        emit_gps_terminal(reception.sender, obs::kStageDropped, obs::kDropDecodeFailure);
      }
      break;
    case phy::SlotOutcome::kCollision:
      for (int node : reception.colliders) {
        emit_gps_terminal(node, obs::kStageDropped, obs::kDropCollision);
      }
      break;
    case phy::SlotOutcome::kIdle:
      break;
  }

  bs_.OnGpsSlotResolved(slot, reception);
  DrainDeliveries();
}

void Cell::ResolveDataSlot(int slot, Interval abs, bool is_last_of_prev) {
  OSUMAC_PROFILE_ZONE("cell.slot.data");
  const phy::SlotReception& reception = ResolveReverseSlot(reverse_channel_, abs, data_code_);
  // The deferred last slot was scheduled by the *previous* cycle: its
  // assignment is whoever must listen to CF2 now (kNoUser = it was open
  // contention); current-cycle slots read the live schedule.
  const bool assigned = is_last_of_prev
                            ? bs_.cf2_listener() != kNoUser
                            : bs_.reverse_schedule()[static_cast<std::size_t>(slot)] !=
                                  kNoUser;
  const bool designated_contention =
      is_last_of_prev ? bs_.cf2_listener() == kNoUser
                      : slot < bs_.contention_slots_this_cycle();
  EmitSlotResolved(slot, abs, static_cast<std::int64_t>(reception.outcome), assigned,
                   designated_contention, /*is_gps=*/false);

  // Erasure sub-span: the packet's lifecycle stays open (the subscriber
  // emits kStageRetry when the missing ACK is noticed), but the span
  // records *why* the attempt failed and which slot burned the airtime.
  if (trace_ != nullptr && reception.outcome != phy::SlotOutcome::kDecoded &&
      reception.outcome != phy::SlotOutcome::kIdle) {
    const auto emit_erasure = [&](int node) {
      const std::int64_t lc = subscriber(node).LifecycleInSlot(slot);
      if (lc == 0) return;
      obs::Event e;
      e.kind = obs::EventKind::kLifecycle;
      e.channel = obs::Channel::kReverse;
      e.node = node;
      e.uid = subscriber(node).user_id();
      e.slot = slot;
      e.span = abs;
      e.a0 = obs::kStageErasure;
      e.a1 = lc;
      e.a2 = static_cast<std::int64_t>(reception.outcome);
      e.a3 = obs::kClassData;
      Emit(e);
    };
    if (reception.outcome == phy::SlotOutcome::kDecodeFailure && reception.sender >= 0) {
      emit_erasure(reception.sender);
    } else if (reception.outcome == phy::SlotOutcome::kCollision) {
      for (int node : reception.colliders) emit_erasure(node);
    }
  }

  if (is_last_of_prev) {
    bs_.OnLastSlotOfPreviousCycle(reception);
  } else {
    bs_.OnDataSlotResolved(slot, reception);
  }
  DrainDeliveries();
}

void Cell::DeliverForwardSlot(int slot, Interval abs) {
  OSUMAC_PROFILE_ZONE("cell.slot.forward");
  const std::optional<ForwardDataPacket> packet = bs_.DownlinkPacketForSlot(slot);
  OSUMAC_CHECK(packet.has_value() && "a forward-slot event without a packet");

  // The base station transmitted regardless of whether anyone receives.
  if (trace_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kForwardTx;
    e.channel = obs::Channel::kForward;
    e.slot = slot;
    e.uid = packet->dest;
    e.span = abs;
    e.a0 = packet->payload_bytes;
    trace_->Record(e);
  }
  const auto emit_loss = [this, slot, &packet](std::int64_t code) {
    if (trace_ == nullptr) return;  // skip even building the Event
    obs::Event e;
    e.kind = obs::EventKind::kForwardLoss;
    e.channel = obs::Channel::kForward;
    e.slot = slot;
    e.uid = packet->dest;
    e.a0 = code;
    Emit(e);
  };

  MobileSubscriber* dest = nullptr;
  for (auto& sub : subscribers_) {
    if (sub->user_id() == packet->dest &&
        sub->state() == MobileSubscriber::State::kActive) {
      dest = sub.get();
      break;
    }
  }
  if (dest == nullptr || !dest->ExpectsForwardSlot(slot) ||
      !dest->radio().CanReceive(abs)) {
    emit_loss(dest == nullptr ? obs::kLossNoActiveSubscriber
              : !dest->ExpectsForwardSlot(slot) ? obs::kLossNotExpected
                                                : obs::kLossRadioBusy);
    ++metrics_.forward_packets_lost;
    return;
  }

  fwd_codewords_.resize(1);
  fwd_codewords_[0].resize(static_cast<std::size_t>(data_code_.n()));
  data_code_.EncodeInto(SerializeForwardDataPacket(*packet), fwd_codewords_[0]);
  std::optional<ForwardDataPacket> parsed;
  if (phy::ApplyChannelInto(fwd_codewords_, data_code_,
                            ForwardModelFor(dest->node_index()), rng_, channel_scratch_,
                            fwd_decoded_, nullptr, config_.erasure_side_information)) {
    parsed = ParseForwardDataPacket(fwd_decoded_.front());
  }
  if (!parsed.has_value()) {
    emit_loss(obs::kLossDecodeFailure);
    ++metrics_.forward_packets_lost;
    return;
  }
  dest->OnForwardPacket(*parsed);
  for (std::uint32_t msg : dest->TakeCompletedForwardMessages()) {
    const auto it = downlink_enqueue_tick_.find(msg);
    if (it != downlink_enqueue_tick_.end()) {
      metrics_.downlink_message_delay_cycles.Add(
          ToSeconds(abs.end - it->second) / ToSeconds(kCycleTicks));
      downlink_enqueue_tick_.erase(it);
    }
  }
}

void Cell::DrainDeliveries() {
  for (const UplinkDelivery& d : bs_.deliveries()) {
    if (d.duplicate) continue;
    RecordUplinkDelivery(d.src, d.payload_bytes);
  }
  bs_.ClearDeliveries();
  // Messages the base station just forwarded onto the downlink (routing):
  // start their delay clocks so downlink metrics cover them too.
  for (const BaseStation::ForwardedMessage& m : bs_.TakeForwardedMessages()) {
    downlink_enqueue_tick_[m.message_id] = sim_.now();
  }
}

}  // namespace osumac::mac
