// MSB-first bit-level serialization used for the forward-channel control
// fields (Section 3.1 of the paper): fields such as 6-bit user IDs and 16-bit
// EINs are packed back-to-back into the 768 information bits of two
// RS(64,48) codewords.
//
// Both classes move whole bytes per step rather than single bits: a Write
// touches at most nine bytes, a Read loads one big-endian 64-bit word (plus
// one spill byte when the field straddles it).  Every listening subscriber
// parses each control-field set and every uplink burst is a bit-packed
// packet, so this is the simulator's per-cycle codec path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace osumac {

/// Appends fixed-width big-endian bit fields to an inline byte buffer
/// sized for the largest serialized unit, the control-field pair (two
/// 48-byte RS information blocks); writing past it is a CHECK failure.
class BitWriter {
 public:
  /// Capacity of the inline buffer in bytes.
  static constexpr int kCapacityBytes = 96;

  /// Appends the low `width` bits of `value`, most significant bit first.
  /// Requires 0 < width <= 64; bits of `value` above `width` must be zero.
  void Write(std::uint64_t value, int width);

  /// Appends `count` zero bits (reserved / padding fields).
  void WriteZeros(int count);

  /// Number of bits written so far.
  int bit_size() const { return bit_size_; }

  /// Views the packed bytes, ceil(bit_size() / 8) of them; the final
  /// partial byte (if any) is zero-padded in its low bits.  Pad to a whole
  /// block with WriteZeros.
  std::span<const std::uint8_t> bytes() const {
    return {bytes_.data(), (static_cast<std::size_t>(bit_size_) + 7) >> 3};
  }

 private:
  // Invariant: every bit past bit_size_ is zero.
  std::array<std::uint8_t, kCapacityBytes> bytes_{};
  int bit_size_ = 0;
};

/// Reads fixed-width big-endian bit fields from a byte buffer.  The reader
/// views the buffer; it must outlive the reader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads the next `width` bits (MSB first), 0 < width <= 64.  Reading
  /// past the end yields zero bits and sets overflowed().
  std::uint64_t Read(int width);

  /// Skips `count` bits.
  void Skip(int count);

  /// True if any Read/Skip went past the end of the buffer.
  bool overflowed() const { return overflowed_; }

  int bit_position() const { return bit_pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  int bit_pos_ = 0;
  bool overflowed_ = false;
};

}  // namespace osumac
