// Identifiers used by OSU-MAC (Section 3.1).
//
// Every mobile unit carries a permanent 16-bit equipment identification
// number (EIN).  On registration the base station assigns a 6-bit user ID
// that is unique within the cell and is the only identifier used in control
// fields.  One 6-bit value (63) is reserved as the "no user" sentinel for
// unassigned schedule slots, so a cell can hold at most 63 simultaneously
// active subscribers.  (The paper quotes "up to 8 GPS + 64 data users", which
// does not fit a 6-bit ID space with a sentinel; we document the cap of 63.)
#pragma once

#include <cstdint>

#include "common/check.h"

namespace osumac::mac {

/// 6-bit in-cell user identifier.
using UserId = std::uint8_t;

/// Sentinel: schedule entry not assigned to any subscriber (contention slot
/// on the reverse channel, idle slot on the forward channel).
inline constexpr UserId kNoUser = 63;

/// Number of usable user IDs (0..62).
inline constexpr int kMaxActiveUsers = 63;

/// Bits per user ID field in the control fields.
inline constexpr int kUserIdBits = 6;

/// Distinct 6-bit user ID values, kNoUser included.
inline constexpr int kUserIdValues = 1 << kUserIdBits;  // 64

/// A set of user IDs as one 64-bit mask, bit u standing for user ID u.
class UserMask {
 public:
  bool contains(UserId u) const { return ((bits_ >> Index(u)) & 1) != 0; }
  void insert(UserId u) { bits_ |= std::uint64_t{1} << Index(u); }
  void erase(UserId u) { bits_ &= ~(std::uint64_t{1} << Index(u)); }

 private:
  static int Index(UserId u) {
    OSUMAC_DCHECK_LT(u, kUserIdValues);
    return u;
  }

  std::uint64_t bits_ = 0;
};

/// Permanent 16-bit equipment identification number.
using Ein = std::uint16_t;

/// Bits per EIN field.
inline constexpr int kEinBits = 16;

}  // namespace osumac::mac
