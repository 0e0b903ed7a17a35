#include "common/bitio.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace osumac {

namespace {

/// Big-endian load of 8 bytes (compiles to one load and a byte swap).
std::uint64_t LoadBe64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void BitWriter::Write(std::uint64_t value, int width) {
  OSUMAC_DCHECK(width > 0 && width <= 64);
  OSUMAC_DCHECK(width == 64 || (value >> width) == 0);
  OSUMAC_CHECK_LE(bit_size_ + width, kCapacityBytes * 8);
  const int used = bit_size_ & 7;  // bits already taken in the last byte
  const std::size_t first = static_cast<std::size_t>(bit_size_) >> 3;
  bit_size_ += width;
  std::uint8_t* out = bytes_.data() + first;
  int left = width;  // low bits of `value` not yet placed
  if (used != 0) {
    const int room = 8 - used;
    if (left <= room) {
      *out = static_cast<std::uint8_t>(*out | (value << (room - left)));
      return;
    }
    left -= room;
    *out = static_cast<std::uint8_t>(*out | (value >> left));
    ++out;
  }
  while (left >= 8) {
    left -= 8;
    *out++ = static_cast<std::uint8_t>(value >> left);
  }
  if (left > 0) *out = static_cast<std::uint8_t>(value << (8 - left));
}

void BitWriter::WriteZeros(int count) {
  OSUMAC_DCHECK_GE(count, 0);
  OSUMAC_CHECK_LE(bit_size_ + count, kCapacityBytes * 8);
  bit_size_ += count;  // bits past bit_size_ are already zero
}

std::uint64_t BitReader::Read(int width) {
  OSUMAC_DCHECK(width > 0 && width <= 64);
  const std::size_t byte = static_cast<std::size_t>(bit_pos_) >> 3;
  const int shift = bit_pos_ & 7;
  bit_pos_ += width;
  // A field spans at most 9 bytes: 8 for the word, one spill byte when the
  // field starts mid-byte.
  std::uint64_t word = 0;
  std::uint8_t spill = 0;
  if (byte + 9 <= bytes_.size()) {
    word = LoadBe64(bytes_.data() + byte);
    spill = bytes_[byte + 8];
  } else {
    // Near or past the end: stage the tail in a zero-filled window.
    std::uint8_t window[9] = {};
    if (byte < bytes_.size()) {
      std::memcpy(window, bytes_.data() + byte,
                  std::min<std::size_t>(9, bytes_.size() - byte));
    }
    if (static_cast<std::size_t>(bit_pos_) > bytes_.size() * 8) overflowed_ = true;
    word = LoadBe64(window);
    spill = window[8];
  }
  if (shift != 0) word = (word << shift) | (spill >> (8 - shift));
  return word >> (64 - width);
}

void BitReader::Skip(int count) {
  OSUMAC_DCHECK_GE(count, 0);
  bit_pos_ += count;
  if (static_cast<std::size_t>(bit_pos_) > bytes_.size() * 8) overflowed_ = true;
}

}  // namespace osumac
