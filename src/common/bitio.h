// MSB-first bit-level serialization used for the forward-channel control
// fields (Section 3.1 of the paper): fields such as 6-bit user IDs and 16-bit
// EINs are packed back-to-back into the 768 information bits of two
// RS(64,48) codewords.
//
// Both classes keep the bit stream in a 64-bit register.  The writer packs
// fields into an accumulator and stores to memory only once per 64 bits (a
// whole big-endian word), plus the pending partial word when bytes() is
// read.  The reader loads one big-endian 64-bit word per field (plus one
// spill byte when the field straddles it); only a read near the end of the
// buffer leaves the inline path.  Every listening subscriber parses each
// control-field set and every uplink burst is a bit-packed packet, so this
// is the simulator's per-cycle codec path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.h"

namespace osumac {

namespace bitio_internal {

/// Big-endian load of 8 bytes (compiles to one load and a byte swap).
inline std::uint64_t LoadBe64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// Big-endian store of 8 bytes (one byte swap and a store).
inline void StoreBe64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

}  // namespace bitio_internal

/// Appends fixed-width big-endian bit fields to an inline byte buffer
/// sized for the largest serialized unit, the control-field pair (two
/// 48-byte RS information blocks); writing past it is a CHECK failure.
class BitWriter {
 public:
  /// Capacity of the inline buffer in bytes.
  static constexpr int kCapacityBytes = 96;
  static_assert(kCapacityBytes % 8 == 0, "the buffer holds whole 64-bit words");

  /// Appends the low `width` bits of `value`, most significant bit first.
  /// Requires 0 < width <= 64; bits of `value` above `width` must be zero.
  void Write(std::uint64_t value, int width) {
    OSUMAC_DCHECK(width > 0 && width <= 64);
    OSUMAC_DCHECK(width == 64 || (value >> width) == 0);
    OSUMAC_CHECK_LE(bit_size_ + width, kCapacityBytes * 8);
    const int room = 64 - pending_bits_;  // 1..64
    if (width < room) {
      pending_ |= value << (room - width);
      pending_bits_ += width;
      bit_size_ += width;
      return;
    }
    // The field completes the pending word; its low `spill` bits start
    // the next one.
    const int spill = width - room;  // 0..63
    StorePending(pending_ | (value >> spill));
    pending_ = spill == 0 ? 0 : value << (64 - spill);
    pending_bits_ = spill;
    bit_size_ += width;
  }

  /// Appends `count` zero bits (reserved / padding fields).
  void WriteZeros(int count) {
    OSUMAC_DCHECK_GE(count, 0);
    OSUMAC_CHECK_LE(bit_size_ + count, kCapacityBytes * 8);
    if (pending_bits_ + count < 64) {
      pending_bits_ += count;
      bit_size_ += count;
      return;
    }
    // Whole zero words past the pending one are already zero in memory.
    StorePending(pending_);
    pending_ = 0;
    bit_size_ += count;
    pending_bits_ = bit_size_ & 63;
  }

  /// Number of bits written so far.
  int bit_size() const { return bit_size_; }

  /// Views the packed bytes, ceil(bit_size() / 8) of them; the final
  /// partial byte (if any) is zero-padded in its low bits.  Pad to a whole
  /// block with WriteZeros.  Stores the pending word first, so the view
  /// is valid until the next Write or WriteZeros.
  std::span<const std::uint8_t> bytes() {
    if (pending_bits_ != 0) StorePending(pending_);
    return {bytes_.data(), (static_cast<std::size_t>(bit_size_) + 7) >> 3};
  }

 private:
  /// Stores `word` as the pending word, the first not yet stored.
  void StorePending(std::uint64_t word) {
    bitio_internal::StoreBe64(bytes_.data() + ((bit_size_ - pending_bits_) >> 3), word);
  }

  // Invariants: the first bit_size_ - pending_bits_ bits (a whole number
  // of words) are in bytes_; the rest sit in the top pending_bits_ bits of
  // pending_, whose other bits are zero; every bit of bytes_ past
  // bit_size_ is zero.
  std::array<std::uint8_t, kCapacityBytes> bytes_{};
  std::uint64_t pending_ = 0;
  int pending_bits_ = 0;  // 0..63
  int bit_size_ = 0;
};

/// Reads fixed-width big-endian bit fields from a byte buffer.  The reader
/// views the buffer; it must outlive the reader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads the next `width` bits (MSB first), 0 < width <= 64.  Reading
  /// past the end yields zero bits and sets overflowed().
  std::uint64_t Read(int width) {
    OSUMAC_DCHECK(width > 0 && width <= 64);
    // A field spans at most 9 bytes: 8 for the word, one spill byte when
    // the field starts mid-byte.
    const std::size_t byte = static_cast<std::size_t>(bit_pos_) >> 3;
    if (byte + 9 > bytes_.size()) return ReadNearEnd(width);
    const int shift = bit_pos_ & 7;
    bit_pos_ += width;
    std::uint64_t word = bitio_internal::LoadBe64(bytes_.data() + byte);
    if (shift != 0) word = (word << shift) | (bytes_[byte + 8] >> (8 - shift));
    return word >> (64 - width);
  }

  /// Skips `count` bits.
  void Skip(int count);

  /// True if any Read/Skip went past the end of the buffer.
  bool overflowed() const { return overflowed_; }

  int bit_position() const { return bit_pos_; }

 private:
  /// Read's path for a field within 9 bytes of the end (or past it).
  std::uint64_t ReadNearEnd(int width);

  std::span<const std::uint8_t> bytes_;
  int bit_pos_ = 0;
  bool overflowed_ = false;
};

}  // namespace osumac
