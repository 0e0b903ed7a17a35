#include "mac/packet.h"

#include <algorithm>

#include "common/bitio.h"
#include "common/check.h"

namespace osumac::mac {

namespace {

void WriteHeader(BitWriter& w, const PacketHeader& h) {
  w.Write(static_cast<std::uint64_t>(h.kind), 3);
  w.Write(h.src, kUserIdBits);
  w.Write(h.seq & 0x7FF, 11);
  w.Write(h.more_slots & 0x1F, 5);
  w.Write(h.frag_index & 0x7F, 7);
}

PacketHeader ReadHeader(BitReader& r) {
  PacketHeader h;
  h.kind = static_cast<PacketKind>(r.Read(3));
  h.src = static_cast<UserId>(r.Read(kUserIdBits));
  h.seq = static_cast<std::uint16_t>(r.Read(11));
  h.more_slots = static_cast<std::uint8_t>(r.Read(5));
  h.frag_index = static_cast<std::uint8_t>(r.Read(7));
  return h;
}

/// Writes the deterministic payload stand-in: `count` bytes, byte i being
/// (message_id + i) mod 256, eight per Write.  Consecutive filler bytes
/// differ by one, so each word is the previous one plus 8 in every byte
/// lane (a carry-free lane-wise add).
void WriteFiller(BitWriter& w, std::uint32_t message_id, int count) {
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  const auto lane_add = [](std::uint64_t a, std::uint64_t b) {
    return ((a & ~kHigh) + (b & ~kHigh)) ^ ((a ^ b) & kHigh);
  };
  std::uint64_t word =
      lane_add((message_id & 0xFF) * 0x0101010101010101ULL, 0x0001020304050607ULL);
  for (; count >= 8; count -= 8) {
    w.Write(word, 64);
    word = lane_add(word, 0x0808080808080808ULL);
  }
  if (count > 0) w.Write(word >> (64 - 8 * count), 8 * count);
}

InfoBlock PadTo(BitWriter& w, int bytes) {
  w.WriteZeros(8 * bytes - w.bit_size());
  return InfoBlock(w.bytes());
}

}  // namespace

InfoBlock::InfoBlock(std::span<const fec::GfElem> bytes) : size_(bytes.size()) {
  OSUMAC_CHECK_LE(size_, bytes_.size());
  std::copy(bytes.begin(), bytes.end(), bytes_.begin());
}

InfoBlock SerializeDataPacket(const DataPacket& p) {
  OSUMAC_CHECK_LE(p.payload_bytes, kPacketPayloadBytes);
  BitWriter w;
  PacketHeader h = p.header;
  h.kind = PacketKind::kData;
  WriteHeader(w, h);
  w.Write(p.dest_ein, kEinBits);
  w.Write(p.message_id, 32);
  w.Write(p.frag_count, 8);
  w.Write(p.payload_bytes, 16);
  // Deterministic fill standing in for the payload bytes so the codeword
  // exercises the channel like real data would.
  WriteFiller(w, p.message_id, kPacketInfoBytes - kPacketHeaderBytes - 9);
  return PadTo(w, kPacketInfoBytes);
}

InfoBlock SerializeReservationPacket(const ReservationPacket& p) {
  BitWriter w;
  PacketHeader h;
  h.kind = PacketKind::kReservation;
  h.src = p.src;
  WriteHeader(w, h);
  w.Write(p.slots_requested, 8);
  return PadTo(w, kPacketInfoBytes);
}

InfoBlock SerializeRegistrationPacket(const RegistrationPacket& p) {
  BitWriter w;
  PacketHeader h;
  h.kind = PacketKind::kRegistration;
  WriteHeader(w, h);
  w.Write(p.ein, kEinBits);
  w.Write(p.wants_gps ? 1 : 0, 1);
  return PadTo(w, kPacketInfoBytes);
}

InfoBlock SerializeDeregistrationPacket(const DeregistrationPacket& p) {
  BitWriter w;
  PacketHeader h;
  h.kind = PacketKind::kDeregistration;
  h.src = p.src;
  WriteHeader(w, h);
  w.Write(p.ein, kEinBits);
  return PadTo(w, kPacketInfoBytes);
}

InfoBlock SerializeForwardAckPacket(const ForwardAckPacket& p) {
  OSUMAC_CHECK(p.count >= 0 && p.count <= kMaxForwardAcks);
  BitWriter w;
  PacketHeader h = p.header;
  h.kind = PacketKind::kForwardAck;
  WriteHeader(w, h);
  w.Write(static_cast<std::uint64_t>(p.count), 4);
  for (const ForwardAckEntry& e : p.acks) {
    w.Write(e.message_id_low, 16);
    w.Write(e.frag_index, 8);
  }
  return PadTo(w, kPacketInfoBytes);
}

InfoBlock SerializeGpsPacket(const GpsPacket& p) {
  BitWriter w;
  w.Write(p.ein, 16);
  w.Write(p.latitude & 0xFFFFFF, 24);
  w.Write(p.longitude & 0xFFFFFF, 24);
  w.Write(p.timestamp, 8);
  return PadTo(w, 9);
}

InfoBlock SerializeForwardDataPacket(const ForwardDataPacket& p) {
  OSUMAC_CHECK_LE(p.payload_bytes, kPacketPayloadBytes);
  BitWriter w;
  w.Write(p.dest, kUserIdBits);
  w.Write(p.message_id, 32);
  w.Write(p.frag_index, 8);
  w.Write(p.frag_count, 8);
  w.Write(p.payload_bytes, 16);
  WriteFiller(w, p.message_id, kPacketPayloadBytes - 5);
  return PadTo(w, kPacketInfoBytes);
}

std::optional<UplinkPacket> ParseUplinkPacket(std::span<const fec::GfElem> info) {
  if (static_cast<int>(info.size()) != kPacketInfoBytes) return std::nullopt;
  BitReader r(info);
  const PacketHeader h = ReadHeader(r);
  UplinkPacket out;
  out.kind = h.kind;
  switch (h.kind) {
    case PacketKind::kData: {
      DataPacket p;
      p.header = h;
      p.dest_ein = static_cast<Ein>(r.Read(kEinBits));
      p.message_id = static_cast<std::uint32_t>(r.Read(32));
      p.frag_count = static_cast<std::uint8_t>(r.Read(8));
      p.payload_bytes = static_cast<std::uint16_t>(r.Read(16));
      if (p.payload_bytes > kPacketPayloadBytes) return std::nullopt;
      out.data = p;
      return out;
    }
    case PacketKind::kReservation: {
      ReservationPacket p;
      p.src = h.src;
      p.slots_requested = static_cast<std::uint8_t>(r.Read(8));
      out.reservation = p;
      return out;
    }
    case PacketKind::kRegistration: {
      RegistrationPacket p;
      p.ein = static_cast<Ein>(r.Read(kEinBits));
      p.wants_gps = r.Read(1) != 0;
      out.registration = p;
      return out;
    }
    case PacketKind::kDeregistration: {
      DeregistrationPacket p;
      p.src = h.src;
      p.ein = static_cast<Ein>(r.Read(kEinBits));
      out.deregistration = p;
      return out;
    }
    case PacketKind::kForwardAck: {
      ForwardAckPacket p;
      p.header = h;
      p.count = static_cast<int>(r.Read(4));
      if (p.count > kMaxForwardAcks) return std::nullopt;
      for (ForwardAckEntry& e : p.acks) {
        e.message_id_low = static_cast<std::uint16_t>(r.Read(16));
        e.frag_index = static_cast<std::uint8_t>(r.Read(8));
      }
      out.forward_ack = p;
      return out;
    }
  }
  return std::nullopt;
}

std::optional<GpsPacket> ParseGpsPacket(std::span<const fec::GfElem> info) {
  if (info.size() != 9) return std::nullopt;
  BitReader r(info);
  GpsPacket p;
  p.ein = static_cast<Ein>(r.Read(16));
  p.latitude = static_cast<std::uint32_t>(r.Read(24));
  p.longitude = static_cast<std::uint32_t>(r.Read(24));
  p.timestamp = static_cast<std::uint8_t>(r.Read(8));
  return p;
}

std::optional<ForwardDataPacket> ParseForwardDataPacket(
    std::span<const fec::GfElem> info) {
  if (static_cast<int>(info.size()) != kPacketInfoBytes) return std::nullopt;
  BitReader r(info);
  ForwardDataPacket p;
  p.dest = static_cast<UserId>(r.Read(kUserIdBits));
  p.message_id = static_cast<std::uint32_t>(r.Read(32));
  p.frag_index = static_cast<std::uint8_t>(r.Read(8));
  p.frag_count = static_cast<std::uint8_t>(r.Read(8));
  p.payload_bytes = static_cast<std::uint16_t>(r.Read(16));
  if (p.payload_bytes > kPacketPayloadBytes) return std::nullopt;
  return p;
}

}  // namespace osumac::mac
