#include "sim/simulator.h"

#include <algorithm>

#include "common/check.h"

namespace osumac::sim {
namespace {

/// Heap order: std::*_heap build a max-heap, so "greater" puts the earliest
/// (when, seq) on top.
bool Later(const Event& a, const Event& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
}

}  // namespace

std::int32_t Simulator::AddTarget(EventTarget* target) {
  OSUMAC_CHECK(target != nullptr);
  targets_.push_back(target);
  return static_cast<std::int32_t>(targets_.size() - 1);
}

void Simulator::RemoveTarget(std::int32_t id) {
  OSUMAC_CHECK(id >= 0 && static_cast<std::size_t>(id) < targets_.size());
  targets_[static_cast<std::size_t>(id)] = nullptr;
}

void Simulator::ScheduleAt(Tick when, std::int32_t target, std::int32_t kind,
                           std::int32_t index) {
  ScheduleReservedAt(when, next_seq_++, target, kind, index);
}

std::uint64_t Simulator::ReserveSeqs(std::uint64_t count) {
  const std::uint64_t first = next_seq_;
  next_seq_ += count;
  return first;
}

void Simulator::ScheduleReservedAt(Tick when, std::uint64_t seq, std::int32_t target,
                                   std::int32_t kind, std::int32_t index) {
  OSUMAC_CHECK_GE(when, now_);  // cannot schedule into the past
  OSUMAC_CHECK(target >= 0 && static_cast<std::size_t>(target) < targets_.size());
  OSUMAC_DCHECK_LT(seq, next_seq_);
  agenda_.push_back(Event{when, seq, target, kind, index});
  std::push_heap(agenda_.begin(), agenda_.end(), Later);
}

void Simulator::RunUntil(Tick end) {
  while (!agenda_.empty() && agenda_.front().when <= end) {
    std::pop_heap(agenda_.begin(), agenda_.end(), Later);
    const Event event = agenda_.back();
    agenda_.pop_back();
    now_ = event.when;
    ++events_executed_;
    EventTarget* target = targets_[static_cast<std::size_t>(event.target)];
    if (target != nullptr) target->Fire(event);
  }
  if (now_ < end) now_ = end;
}

}  // namespace osumac::sim
