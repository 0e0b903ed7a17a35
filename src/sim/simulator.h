// A deterministic discrete-event simulation engine.
//
// This is the substrate that replaces the paper's JavaSim environment: a
// plain-data agenda keyed by (tick, insertion sequence) so that simultaneous
// events fire in a well-defined order and every run with the same seed is
// bit-for-bit reproducible.  An event names what to do by value — a target
// id, a kind and an index — never by closure, so the whole agenda is
// trivially copyable data.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace osumac::sim {

/// One scheduled event.  `target` selects the EventTarget registered with
/// the simulator; `kind` and `index` are the target's own vocabulary (a
/// slot kind and slot number, a node, ...).
struct Event {
  Tick when = 0;
  std::uint64_t seq = 0;
  std::int32_t target = 0;
  std::int32_t kind = 0;
  std::int32_t index = 0;
};

/// Receiver of the events scheduled under its target id.  Not copyable:
/// the simulator holds its address.
class EventTarget {
 public:
  EventTarget() = default;
  EventTarget(const EventTarget&) = delete;
  EventTarget& operator=(const EventTarget&) = delete;
  virtual void Fire(const Event& event) = 0;

 protected:
  ~EventTarget() = default;
};

/// Single-threaded discrete-event simulator.
///
/// Two events scheduled for the same tick fire in scheduling order (FIFO),
/// which the MAC relies on so that, e.g., a slot-end event posted before a
/// cycle-start event at the same boundary tick is processed first.  An
/// event scheduled under a reserved sequence number (ReserveSeqs) counts as
/// scheduled when the number was reserved.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Tick now() const { return now_; }

  /// Registers `target` and returns its id.  Ids are never reused.
  std::int32_t AddTarget(EventTarget* target);
  /// Unregisters target `id`: its pending events still fire, as counted
  /// no-ops.
  void RemoveTarget(std::int32_t id);

  /// Schedules (target, kind, index) at absolute time `when` (>= now()).
  void ScheduleAt(Tick when, std::int32_t target, std::int32_t kind,
                  std::int32_t index = 0);

  /// Reserves `count` consecutive sequence numbers and returns the first.
  /// An event later scheduled under one of them with ScheduleReservedAt
  /// fires among same-tick events exactly where it would have had it been
  /// scheduled at the moment of the reservation; an event that turns out
  /// not to be needed is simply never scheduled.
  std::uint64_t ReserveSeqs(std::uint64_t count);
  /// Schedules (target, kind, index) at `when` (>= now()) under `seq`, a
  /// number from ReserveSeqs; each reserved number is used at most once.
  void ScheduleReservedAt(Tick when, std::uint64_t seq, std::int32_t target,
                          std::int32_t kind, std::int32_t index = 0);

  /// Runs events with time <= `end`; afterwards now() == end if the queue
  /// still holds later events (or was emptied), so repeated RunUntil calls
  /// advance monotonically.
  void RunUntil(Tick end);

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending.
  std::size_t pending_events() const { return agenda_.size(); }

 private:
  Tick now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::vector<EventTarget*> targets_;
  /// Binary min-heap on (when, seq).
  std::vector<Event> agenda_;
};

}  // namespace osumac::sim
