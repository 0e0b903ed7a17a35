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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace osumac {

/// Appends fixed-width big-endian bit fields to a growing byte buffer.
class BitWriter {
 public:
  /// `capacity_bytes` reserves the buffer up front (the serialized size is
  /// usually known: one RS information block).
  explicit BitWriter(std::size_t capacity_bytes = 0) {
    bytes_.reserve(capacity_bytes);
  }

  /// Appends the low `width` bits of `value`, most significant bit first.
  /// Requires 0 < width <= 64; bits of `value` above `width` must be zero.
  void Write(std::uint64_t value, int width);

  /// Appends `count` zero bits (reserved / padding fields).
  void WriteZeros(int count);

  /// Number of bits written so far.
  int bit_size() const { return bit_size_; }

  /// Returns the packed bytes; the final partial byte (if any) is
  /// zero-padded in its low bits.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  /// Moves the packed bytes out, padded with zero bytes up to `min_bytes`.
  std::vector<std::uint8_t> BytesPaddedTo(std::size_t min_bytes) &&;

 private:
  // Invariant: bytes_.size() == ceil(bit_size_ / 8) and every bit past
  // bit_size_ is zero.
  std::vector<std::uint8_t> bytes_;
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
