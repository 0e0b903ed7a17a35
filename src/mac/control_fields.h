// The control fields broadcast on the forward channel (Section 3.1, Fig. 2).
//
// Total length 630 bits, carried in 2 RS(64,48) codewords (768 information
// bits; 138 reserved).  The paper gives the per-field totals for the GPS
// schedule (8 x 6 = 48 bits), the reverse schedule (M = 9, 54 bits) and the
// forward schedule (N = 37, 222 bits); the exact internal split of the
// remaining 306 bits between the reverse-ACK and paging fields is not
// legible in our copy, so we define a concrete layout (documented below and
// in DESIGN.md) that carries everything the protocol text requires and
// totals exactly 630 bits:
//
//   cycle counter            16
//   flags                     2    (is_second_set, late_grant_present)
//   gps_schedule      8 x 6 = 48
//   reverse_schedule  9 x 6 = 54
//   forward_schedule 37 x 6 = 222
//   reverse_acks     10 x 6 = 60
//   gps_ack_bitmap            8
//   grant_count               2
//   grants      2 x (16+6) = 44
//   late_ack                  6    (second set only)
//   late_grant               22    (second set only)
//   paged_count               4
//   paging           8 x 16 = 128
//   reserved pad             14
//   -------------------------------
//   total                   630
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "fec/gf256.h"
#include "mac/cycle_layout.h"
#include "mac/ids.h"
#include "mac/packet.h"

namespace osumac::mac {

/// Maximum registration grants announced per control field set.
inline constexpr int kMaxRegistrationGrants = 2;
/// Maximum EINs in the paging field.
inline constexpr int kMaxPagedUsers = 8;
/// Reverse-ACK entries: one per possible reverse slot use (9 data slots
/// plus one spare entry kept for symmetry with the paper's figure).
inline constexpr int kReverseAckEntries = 10;

/// A registration grant: tells the new subscriber its assigned user ID.
struct RegistrationGrant {
  Ein ein = 0;
  UserId user_id = kNoUser;
  friend bool operator==(const RegistrationGrant&, const RegistrationGrant&) = default;
};

/// One full set of control fields.
///
/// The second set (Section 3.4, "Problem 3") differs from the first only in
/// that it additionally acknowledges what happened in the last reverse data
/// slot of the previous cycle (which overlapped CF1) and may assign
/// CF1-idle forward slots to that slot's user.  Both sets use this struct;
/// `is_second_set` selects which extras are meaningful.
struct ControlFields {
  /// Cycle index (modulo 2^16) — lets subscribers detect missed cycles.
  std::uint16_t cycle = 0;
  bool is_second_set = false;

  /// User IDs of the (up to 8) GPS users owning the GPS slots this cycle.
  std::array<UserId, kMaxGpsSlots> gps_schedule{};
  /// User IDs owning the reverse data slots this cycle; kNoUser marks a
  /// contention slot. Entries beyond the format's slot count are kNoUser.
  std::array<UserId, kMaxReverseDataSlots> reverse_schedule{};
  /// User IDs receiving the forward data slots this cycle; kNoUser = idle.
  std::array<UserId, kForwardDataSlots> forward_schedule{};

  /// reverse_acks[i] == uid: the request/data sent by `uid` in reverse data
  /// slot i of the *previous* cycle was received (kNoUser = nothing
  /// received).
  std::array<UserId, kReverseAckEntries> reverse_acks{};
  /// Bit i set: the GPS report in GPS slot i of the previous cycle was
  /// received (GPS packets are never retransmitted; this is telemetry the
  /// testbed exposes, not an ARQ trigger).
  std::uint8_t gps_ack_bitmap = 0;

  /// Approved registrations from the previous cycle's contention slots.
  std::array<RegistrationGrant, kMaxRegistrationGrants> grants{};
  int grant_count = 0;

  /// Second-set extras: outcome of the last reverse data slot of the
  /// previous cycle (the slot that overlapped this cycle's CF1).
  UserId late_ack = kNoUser;                     ///< data/reservation ack
  std::optional<RegistrationGrant> late_grant;   ///< registration outcome

  /// EINs of inactive subscribers being paged.
  std::array<Ein, kMaxPagedUsers> paging{};
  int paged_count = 0;

  ControlFields() {
    gps_schedule.fill(kNoUser);
    reverse_schedule.fill(kNoUser);
    forward_schedule.fill(kNoUser);
    reverse_acks.fill(kNoUser);
    paging.fill(0);
  }

  /// Number of active GPS users implied by the GPS schedule; determines the
  /// reverse format ("the announcement is made implicitly through the
  /// number of GPS subscribers in the control fields").
  int ActiveGpsCount() const;
  ReverseFormat Format() const { return FormatForGpsCount(ActiveGpsCount()); }

  friend bool operator==(const ControlFields&, const ControlFields&) = default;
};

/// Total serialized size in bits (must equal the paper's 630).
inline constexpr int kControlFieldBits = 630;
/// The two RS codewords offer 768 information bits; 138 remain reserved.
inline constexpr int kControlFieldReservedBits = 2 * 384 - kControlFieldBits;
static_assert(kControlFieldReservedBits == 138);

/// Serializes into exactly 96 bytes = two RS(64,48) information blocks.
std::array<InfoBlock, 2> SerializeControlFields(const ControlFields& cf);

/// Parses two decoded 48-byte information blocks. Returns nullopt if the
/// blocks are malformed (wrong size or out-of-range fields).
std::optional<ControlFields> ParseControlFields(std::span<const fec::GfElem> block0,
                                                std::span<const fec::GfElem> block1);

}  // namespace osumac::mac
