// Channel models.
//
// Reverse channel: many mobiles, one receiver (the base station).  Any two
// temporally overlapping transmissions collide and all involved bursts are
// lost (Section 2.2: "only one station/subscriber can transmit on a channel;
// otherwise collision occurs").  The base station distinguishes an idle slot
// from a collision (energy detected but nothing decodable), which it needs
// for dynamic contention-slot adjustment (Section 3.5).
//
// Forward channel: broadcast from the base station; no collisions are
// possible (single transmitter), but each mobile sees an independent fading
// path, so delivery is evaluated per listener with that listener's error
// model.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "fec/reed_solomon.h"
#include "phy/error_model.h"

namespace osumac::phy {

/// A coded burst put on the air by one transmitter.
struct CodedBurst {
  Interval on_air;  ///< full airtime including preamble/postamble/guard
  std::vector<std::vector<fec::GfElem>> codewords;  ///< coded symbols
  int sender = -1;      ///< node index (diagnostics / error-model lookup)
  std::uint64_t tag = 0;  ///< opaque MAC bookkeeping id
};

/// What the base station observed in one reverse slot.
enum class SlotOutcome {
  kIdle,           ///< no energy in the slot
  kCollision,      ///< overlapping transmissions; nothing decodable
  kDecodeFailure,  ///< single transmission but RS decoding failed
  kDecoded,        ///< single transmission, successfully decoded
};

/// Result of resolving one reverse slot at the base station.
struct SlotReception {
  SlotOutcome outcome = SlotOutcome::kIdle;
  /// Decoded information bytes, one entry per codeword.  Meaningful only
  /// on kDecoded: any other outcome leaves stale words behind (their
  /// capacity is what the next decoded slot reuses).
  std::vector<std::vector<fec::GfElem>> info;
  int sender = -1;
  std::uint64_t tag = 0;
  int errors_corrected = 0;
  /// Senders involved in a collision (diagnostics).
  std::vector<int> colliders;
};

/// Reusable per-receiver scratch for ApplyChannelInto / ResolveSlotPerSenderInto.
/// Holds the noisy codeword copy, erasure list, and decode result so
/// steady-state slot resolution costs zero heap allocations (buffers reach
/// their high-water capacity within the first few slots and stay there).
struct ChannelScratch {
  std::vector<fec::GfElem> noisy;
  std::vector<int> erasures;
  fec::DecodeResult decode;
};

/// Passes coded codewords through an error model and an RS decoder.
/// Writes the decoded info blocks into `decoded` (resized to match; inner
/// vectors keep their capacity) and returns false if any codeword fails to
/// decode.  `errors_corrected_out`, if non-null, accumulates corrected
/// symbol counts.  With `use_erasure_side_info`, the receiver feeds the
/// model's erasure side information to the decoder (errors-and-erasures
/// decoding doubles the correctable burst length; cf. the paper's
/// reference [2]).  Relies on the SymbolErrorModel contract that the
/// returned hit count is exact: an untouched codeword (0 hits, no erasure
/// flags) is already a valid codeword, so the RS decoder is skipped
/// outright — by far the dominant case at paper error rates.
/// The Rng& is unused: error models draw from their own streams.
bool ApplyChannelInto(const std::vector<std::vector<fec::GfElem>>& codewords,
                      const fec::ReedSolomon& code, SymbolErrorModel& model, Rng&,
                      ChannelScratch& scratch,
                      std::vector<std::vector<fec::GfElem>>& decoded,
                      int* errors_corrected_out = nullptr,
                      bool use_erasure_side_info = false);

/// Collision-detecting multiple-access reverse channel.
class ReverseChannel {
 public:
  /// Puts a copy of `burst` on the air.  Bursts may be registered in any
  /// order.  The copy lives in the same recycled storage as TransmitWord's.
  void Transmit(CodedBurst burst);

  /// Puts a one-codeword burst on the air and returns its `n`-symbol word
  /// for the caller to fill (e.g. with ReedSolomon::EncodeInto).  The word
  /// reuses the storage of a burst resolved earlier, so steady-state
  /// transmits allocate nothing.  The span stays valid until the burst is
  /// resolved.
  std::span<fec::GfElem> TransmitWord(Interval on_air, int sender, std::uint64_t tag,
                                      int n);

  /// Collects (and removes) every pending burst overlapping `slot`, then
  /// classifies the slot into `out`: idle, collision (>= 2 mutually
  /// overlapping bursts), or a single burst decoded with `code` through the
  /// sender's error model from `model_for` (different mobiles see different
  /// uplink paths).  Reuses the capacity of `out`'s vectors, `info`'s
  /// words included (it is never cleared; see SlotReception::info), so the
  /// caller keeps one SlotReception alive across slots.
  /// The Rng& is unused: error models draw from their own streams.
  void ResolveSlotPerSenderInto(
      Interval slot, const fec::ReedSolomon& code,
      const std::function<SymbolErrorModel&(int sender)>& model_for, Rng&,
      ChannelScratch& scratch, SlotReception& out,
      bool use_erasure_side_info = false);

  /// Number of bursts not yet resolved (should be 0 at cycle boundaries in
  /// a well-formed run; lingering bursts indicate a scheduling bug).
  std::size_t pending_bursts() const { return pending_.size(); }

  /// Bursts not yet resolved, for auditing (see analysis/protocol_auditor).
  const std::vector<CodedBurst>& pending() const { return pending_; }

 private:
  /// Appends a burst to pending_ holding recycled codeword storage.
  CodedBurst& PutOnAir(Interval on_air, int sender, std::uint64_t tag);
  /// Moves overlapping bursts into `hits`, after recycling the codeword
  /// storage of the bursts `hits` held (capacity reused).
  void CollectInto(Interval slot, std::vector<CodedBurst>& hits);

  std::vector<CodedBurst> pending_;
  /// Scratch for ResolveSlotPerSenderInto: reused across slots so slot
  /// resolution does not allocate a fresh burst vector per slot.
  std::vector<CodedBurst> collected_;
  /// Codeword storage of resolved bursts, handed to the next transmits.
  std::vector<std::vector<std::vector<fec::GfElem>>> spare_codewords_;
};

}  // namespace osumac::phy
