// Contention-slot control and backoff policies (Sections 3.1, 3.2, 3.5).
//
// Contention slots are reverse data slots the base station leaves
// unassigned.  Mobiles use them to register, to send explicit reservation
// requests, or to send a data packet directly.  On collision:
//   - registration requests PERSIST (retry next cycle, no backoff) — the
//     paper gives registrations priority because everyone else backs off;
//   - reservation requests back off a short random number of cycles;
//   - data-in-contention packets back off a longer random number of cycles.
//
// The base station watches the contention slots: a cycle with collisions
// raises the number of contention slots for the next cycle, a cycle where
// all of them stayed idle lowers it (Section 3.5).
#pragma once

#include <algorithm>

#include "common/rng.h"
#include "mac/config.h"

namespace osumac::mac {

/// Base-station side: adjusts how many leading data slots stay unassigned.
class ContentionController {
 public:
  explicit ContentionController(const MacConfig& config)
      : min_slots_(config.min_contention_slots),
        max_slots_(config.max_contention_slots),
        dynamic_(config.dynamic_contention_slots),
        current_(config.min_contention_slots) {}

  /// Number of contention slots to leave unassigned in the next cycle.
  int slots() const { return current_; }

  /// Feeds one cycle's observations: number of contention slots that saw a
  /// collision and number that stayed idle.
  void OnCycleObserved(int collisions, int idle_contention_slots, int contention_slots) {
    if (!dynamic_) return;
    if (collisions > 0) {
      current_ = std::min(current_ + 1, max_slots_);
    } else if (idle_contention_slots == contention_slots && contention_slots > 0) {
      current_ = std::max(current_ - 1, min_slots_);
    }
  }

 private:
  int min_slots_;
  int max_slots_;
  bool dynamic_;
  int current_;
};

/// Mobile side: how many whole cycles to wait after a collision before the
/// next attempt.  Registrations persist (retry next cycle); reservations use
/// the short window; data-in-contention uses the long window.
struct BackoffPolicy {
  /// Backoff window (in cycles) after a collided reservation request:
  /// retry after Uniform[1, this] cycles.
  static constexpr int kReservationBackoffCycles = 2;
  /// Backoff window after a collided data-in-contention packet; the paper
  /// requires this to be longer so reservations and registrations win.
  static constexpr int kDataBackoffCycles = 6;

  /// Cycles to wait before retrying a collided reservation request.
  static int ReservationBackoff(Rng& rng) {
    return static_cast<int>(rng.UniformInt(1, kReservationBackoffCycles));
  }
  /// Cycles to wait before retrying a collided data-in-contention packet.
  static int DataBackoff(Rng& rng) {
    return static_cast<int>(rng.UniformInt(1, kDataBackoffCycles));
  }
};

}  // namespace osumac::mac
