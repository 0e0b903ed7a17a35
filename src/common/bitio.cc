#include "common/bitio.h"

#include <algorithm>
#include <cstring>

namespace osumac {

std::uint64_t BitReader::ReadNearEnd(int width) {
  const std::size_t byte = static_cast<std::size_t>(bit_pos_) >> 3;
  const int shift = bit_pos_ & 7;
  bit_pos_ += width;
  // Stage the tail in a zero-filled window.
  std::uint8_t window[9] = {};
  if (byte < bytes_.size()) {
    std::memcpy(window, bytes_.data() + byte, std::min<std::size_t>(9, bytes_.size() - byte));
  }
  if (static_cast<std::size_t>(bit_pos_) > bytes_.size() * 8) overflowed_ = true;
  std::uint64_t word = bitio_internal::LoadBe64(window);
  if (shift != 0) word = (word << shift) | (window[8] >> (8 - shift));
  return word >> (64 - width);
}

void BitReader::Skip(int count) {
  OSUMAC_DCHECK_GE(count, 0);
  bit_pos_ += count;
  if (static_cast<std::size_t>(bit_pos_) > bytes_.size() * 8) overflowed_ = true;
}

}  // namespace osumac
