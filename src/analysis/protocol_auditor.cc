#include "analysis/protocol_auditor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "mac/cell.h"
#include "mac/control_fields.h"
#include "phy/phy_params.h"

namespace osumac::analysis {
namespace {

std::string UidStr(mac::UserId uid) {
  return uid == mac::kNoUser ? "none" : std::to_string(static_cast<int>(uid));
}

std::string IntervalStr(Interval iv) {
  std::string out = "[";
  out += std::to_string(iv.begin);
  out += ", ";
  out += std::to_string(iv.end);
  out += ')';
  return out;
}

/// The real-time bound of Section 2.1: every bus reports at least once per
/// 4 seconds.  One cycle is 191250 ticks = 3.984375 s, so a user keeping (or
/// lowering, rule R3) its slot index always meets the bound.
constexpr Tick kGpsAccessBoundTicks = FromSeconds(4);

}  // namespace

void ProtocolAuditor::Violate(const char* invariant, Tick tick, std::string detail) {
  AuditViolation v;
  v.invariant = invariant;
  v.tick = tick;
  v.detail = std::move(detail);
  LogAlways(tick, "audit", v.invariant + " violated: " + v.detail);
  if (mode_ == Mode::kAbort) {
    check::FailCheck(__FILE__, __LINE__, invariant, v.detail);
  }
  violations_.push_back(std::move(v));
}

void ProtocolAuditor::AuditSchedule(const ScheduleView& view, Tick now) {
  ++cycles_audited_;
  const mac::ReverseCycleLayout layout(view.format);

  // gps-schedule-consistent / R1-dense-prefix: occupancy count matches the
  // manager's active count, no user owns two slots, and (dynamic policy) the
  // occupied slots form a dense prefix.
  int occupied = 0;
  bool hole_seen = false;
  std::array<int, mac::kNoUser + 1> uses{};
  for (int i = 0; i < mac::kMaxGpsSlots; ++i) {
    const mac::UserId uid = view.gps_schedule[static_cast<std::size_t>(i)];
    if (uid == mac::kNoUser) {
      hole_seen = true;
      continue;
    }
    ++occupied;
    if (view.dynamic_gps && hole_seen) {
      Violate("R1-dense-prefix", now,
              "GPS slot " + std::to_string(i) + " (user " + UidStr(uid) +
                  ") is occupied after an empty slot");
    }
    if (++uses[uid] == 2) {
      Violate("gps-schedule-consistent", now,
              "user " + UidStr(uid) + " owns more than one GPS slot");
    }
  }
  if (occupied != view.gps_active) {
    Violate("gps-schedule-consistent", now,
            "GPS schedule carries " + std::to_string(occupied) +
                " users but the manager reports " + std::to_string(view.gps_active) +
                " active");
  }

  // format-consistency: the reverse format follows the GPS occupancy
  // (announced implicitly, Section 3.3); the static ablation pins format 1.
  const mac::ReverseFormat expected = view.dynamic_gps
                                          ? mac::FormatForGpsCount(view.gps_active)
                                          : mac::ReverseFormat::kFormat1;
  if (view.format != expected) {
    Violate("format-consistency", now,
            std::string("reverse format ") +
                (view.format == mac::ReverseFormat::kFormat1 ? "1" : "2") +
                " does not match " + std::to_string(view.gps_active) +
                " active GPS users");
  }
  if (view.data_slot_count != layout.data_slot_count()) {
    Violate("format-consistency", now,
            "cycle plans " + std::to_string(view.data_slot_count) +
                " data slots but the format provides " +
                std::to_string(layout.data_slot_count()));
  }
  for (int i = view.data_slot_count; i < mac::kMaxReverseDataSlots; ++i) {
    const mac::UserId uid = view.reverse_schedule[static_cast<std::size_t>(i)];
    if (uid != mac::kNoUser) {
      Violate("format-consistency", now,
              "reverse slot " + std::to_string(i) + " (user " + UidStr(uid) +
                  ") is assigned beyond the format's " +
                  std::to_string(view.data_slot_count) + " data slots");
    }
  }

  // gps-user-last-slot: the last data slot's user must listen to CF2 of the
  // next cycle (Section 3.4), which a GPS user cannot do.
  if (view.data_slot_count > 0) {
    const mac::UserId last_owner =
        view.reverse_schedule[static_cast<std::size_t>(view.data_slot_count - 1)];
    if (last_owner != mac::kNoUser && uses[last_owner] > 0) {
      Violate("gps-user-last-slot", now,
              "GPS user " + UidStr(last_owner) + " is assigned the last data slot " +
                  std::to_string(view.data_slot_count - 1));
    }
  }

  // R3-slot-moved-later / gps-access-interval: a live GPS user's slot index
  // never grows across cycles, and consecutive report slots start at most
  // 4 s apart (GPS slot positions are format-independent, so begins from
  // different formats compare directly).
  for (int i = 0; i < mac::kMaxGpsSlots; ++i) {
    const mac::UserId uid = view.gps_schedule[static_cast<std::size_t>(i)];
    if (uid == mac::kNoUser) continue;
    const Tick begin = view.cycle_start + layout.GpsSlot(i).begin;
    const auto it = last_gps_slot_.find(uid);
    if (it != last_gps_slot_.end()) {
      if (i > it->second) {
        Violate("R3-slot-moved-later", now,
                "user " + UidStr(uid) + " moved from GPS slot " +
                    std::to_string(it->second) + " to later slot " + std::to_string(i));
      }
      const Tick prev_begin = last_gps_slot_begin_[uid];
      if (begin - prev_begin > kGpsAccessBoundTicks) {
        Violate("gps-access-interval", now,
                "user " + UidStr(uid) + ": " + std::to_string(begin - prev_begin) +
                    " ticks between report slot starts (bound " +
                    std::to_string(kGpsAccessBoundTicks) + ")");
      }
    }
    last_gps_slot_[uid] = i;
    last_gps_slot_begin_[uid] = begin;
  }
  // Users absent from the schedule have signed off; if they re-register
  // later they start a fresh R3 history (the bound applies to live users).
  std::erase_if(last_gps_slot_, [&](const auto& kv) {
    return uses[kv.first] == 0;
  });
  std::erase_if(last_gps_slot_begin_, [&](const auto& kv) {
    return uses[kv.first] == 0;
  });
}

void ProtocolAuditor::AuditTransmissions(const TransmissionView& view, Tick now) {
  const mac::ReverseCycleLayout layout(view.format);
  const int gps_slots = layout.gps_slot_count();
  const int data_slots = layout.data_slot_count();
  // Burst count per slot: GPS slots first, then data slots.
  std::vector<int> slot_bursts(static_cast<std::size_t>(gps_slots + data_slots), 0);

  for (const TransmissionView::Burst& burst : view.bursts) {
    // slot-containment: every burst exactly fills one slot of this cycle.
    int slot = -1;
    bool is_gps = false;
    for (int i = 0; i < gps_slots && slot < 0; ++i) {
      const Interval rel = layout.GpsSlot(i);
      if (burst.on_air == Interval{view.cycle_start + rel.begin,
                                   view.cycle_start + rel.end}) {
        slot = i;
        is_gps = true;
      }
    }
    for (int i = 0; i < data_slots && slot < 0; ++i) {
      const Interval rel = layout.DataSlot(i);
      if (burst.on_air == Interval{view.cycle_start + rel.begin,
                                   view.cycle_start + rel.end}) {
        slot = i;
      }
    }
    if (slot < 0) {
      Violate("slot-containment", now,
              "burst from user " + UidStr(burst.sender) + " on air " +
                  IntervalStr(burst.on_air) + " fills no slot of the cycle at " +
                  std::to_string(view.cycle_start));
      continue;
    }
    ++slot_bursts[static_cast<std::size_t>(is_gps ? slot : gps_slots + slot)];

    // reverse-slot-owner: assigned slots carry only their owner.  GPS slots
    // are always assigned; a data slot left at kNoUser is a contention slot
    // open to anyone (including still-unregistered senders).
    const mac::UserId owner =
        is_gps ? view.gps_schedule[static_cast<std::size_t>(slot)]
               : view.reverse_schedule[static_cast<std::size_t>(slot)];
    if (is_gps) {
      if (burst.sender != owner) {
        Violate("reverse-slot-owner", now,
                "GPS slot " + std::to_string(slot) + " owned by " + UidStr(owner) +
                    " carries a burst from " + UidStr(burst.sender));
      }
    } else if (owner != mac::kNoUser && burst.sender != owner) {
      Violate("reverse-slot-owner", now,
              "data slot " + std::to_string(slot) + " assigned to " + UidStr(owner) +
                  " carries a burst from " + UidStr(burst.sender));
    }
  }

  // channel-overlap: at most one transmission per non-contention slot (a
  // contention slot may legitimately collide; the base station detects it).
  for (int i = 0; i < gps_slots + data_slots; ++i) {
    if (slot_bursts[static_cast<std::size_t>(i)] < 2) continue;
    const bool is_gps = i < gps_slots;
    const int slot = is_gps ? i : i - gps_slots;
    const mac::UserId owner =
        is_gps ? view.gps_schedule[static_cast<std::size_t>(slot)]
               : view.reverse_schedule[static_cast<std::size_t>(slot)];
    if (!is_gps && owner == mac::kNoUser) continue;  // contention slot
    Violate("channel-overlap", now,
            std::string(is_gps ? "GPS" : "data") + " slot " + std::to_string(slot) +
                " (owner " + UidStr(owner) + ") carries " +
                std::to_string(slot_bursts[static_cast<std::size_t>(i)]) +
                " concurrent bursts");
  }
}

void ProtocolAuditor::AuditHalfDuplex(const std::vector<RadioView>& radios, Tick now) {
  for (const RadioView& radio : radios) {
    for (const Interval& tx : radio.tx) {
      const Interval guarded = tx.Padded(phy::kHalfDuplexSwitchTicks);
      for (const Interval& rx : radio.rx) {
        if (guarded.Overlaps(rx)) {
          Violate("half-duplex-guard", now,
                  "node " + std::to_string(radio.node) + ": TX " + IntervalStr(tx) +
                      " within the 20 ms switch guard of RX " + IntervalStr(rx));
        }
      }
    }
  }
}

void ProtocolAuditor::AuditControlFieldPair(const mac::ControlFields& cf1,
                                            const mac::ControlFields& cf2,
                                            mac::UserId cf2_listener, Tick now) {
  if (cf1.is_second_set || !cf2.is_second_set) {
    Violate("cf-consistency", now, "is_second_set flags are not {false, true}");
  }
  if (cf1.cycle != cf2.cycle) {
    Violate("cf-consistency", now,
            "cycle counters differ: CF1 " + std::to_string(cf1.cycle) + ", CF2 " +
                std::to_string(cf2.cycle));
  }
  if (cf1.gps_schedule != cf2.gps_schedule) {
    Violate("cf-consistency", now, "GPS schedules differ between CF1 and CF2");
  }
  if (cf1.reverse_schedule != cf2.reverse_schedule) {
    Violate("cf-consistency", now, "reverse schedules differ between CF1 and CF2");
  }
  if (cf1.reverse_acks != cf2.reverse_acks || cf1.gps_ack_bitmap != cf2.gps_ack_bitmap) {
    Violate("cf-consistency", now, "ACK fields differ between CF1 and CF2");
  }
  // The forward schedule may gain slots in CF2, but only CF1-idle slots and
  // only for the CF2 listener (Section 3.4: no other subscriber hears CF2,
  // so nobody can be misled by the richer schedule).
  for (int s = 0; s < mac::kForwardDataSlots; ++s) {
    const mac::UserId a = cf1.forward_schedule[static_cast<std::size_t>(s)];
    const mac::UserId b = cf2.forward_schedule[static_cast<std::size_t>(s)];
    if (a == b) continue;
    if (a == mac::kNoUser && b == cf2_listener) continue;
    Violate("cf-consistency", now,
            "forward slot " + std::to_string(s) + " changed from " + UidStr(a) +
                " to " + UidStr(b) + " (CF2 listener " + UidStr(cf2_listener) + ")");
  }
}

void ProtocolAuditor::OnCyclePlanned(const mac::Cell& cell, const mac::ControlFields& cf1,
                                     std::int64_t cycle, Tick now) {
  ScheduleView view;
  view.cycle = cycle;
  view.cycle_start = now;
  view.dynamic_gps = cell.config().mac.dynamic_gps_slots;
  view.format = cell.base_station().current_format();
  view.gps_active = cell.base_station().gps_manager().active_count();
  view.gps_schedule = cf1.gps_schedule;
  view.reverse_schedule = cf1.reverse_schedule;
  view.data_slot_count = mac::ReverseCycleLayout(view.format).data_slot_count();
  cf1_this_cycle_ = cf1;
  AuditSchedule(view, now);
}

void ProtocolAuditor::OnControlFieldsDelivered(const mac::Cell& cell,
                                               const mac::ControlFields& cf, bool second,
                                               Tick cycle_start, Tick now) {
  // Every pending burst belongs to the current cycle here: the previous
  // cycle's last data slot resolves before CF1 delivery (see the event
  // timeline in mac/cell.h), and bursts are registered at CF delivery.
  TransmissionView view;
  view.cycle_start = cycle_start;
  view.format = cell.base_station().current_format();
  view.gps_schedule = cf.gps_schedule;
  view.reverse_schedule = cf.reverse_schedule;
  for (const phy::CodedBurst& burst : cell.reverse_channel().pending()) {
    TransmissionView::Burst b;
    b.on_air = burst.on_air;
    if (burst.sender >= 0 && burst.sender < cell.subscriber_count()) {
      b.sender = cell.subscriber(burst.sender).user_id();
    }
    view.bursts.push_back(b);
  }
  AuditTransmissions(view, now);

  std::vector<RadioView> radios;
  radios.reserve(static_cast<std::size_t>(cell.subscriber_count()));
  for (int node = 0; node < cell.subscriber_count(); ++node) {
    const phy::HalfDuplexRadio& radio = cell.subscriber(node).radio();
    RadioView rv;
    rv.node = node;
    rv.tx.assign(radio.tx_commitments().begin(), radio.tx_commitments().end());
    rv.rx.assign(radio.rx_commitments().begin(), radio.rx_commitments().end());
    radios.push_back(std::move(rv));
  }
  AuditHalfDuplex(radios, now);

  if (second && cf1_this_cycle_.has_value()) {
    AuditControlFieldPair(*cf1_this_cycle_, cf, cell.base_station().cf2_listener(), now);
  }
}

std::string ProtocolAuditor::Report() const {
  std::ostringstream out;
  out << violations_.size() << " violation(s) in " << cycles_audited_
      << " audited cycle(s)";
  for (const AuditViolation& v : violations_) {
    out << "\n  " << v.invariant << " at t=" << v.tick << ": " << v.detail;
  }
  return out.str();
}

void ProtocolAuditor::Reset() {
  violations_.clear();
  cycles_audited_ = 0;
  last_gps_slot_.clear();
  last_gps_slot_begin_.clear();
  cf1_this_cycle_.reset();
}

}  // namespace osumac::analysis
