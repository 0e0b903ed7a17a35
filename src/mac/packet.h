// Packet formats on both channels.
//
// Regular packets are one RS(64,48) codeword: 48 information bytes, of
// which 4 carry the in-band MAC header (Section 3.1: "all the control
// information sent uplink is either carried in the header of data packets
// or included in regular data packets") and 44 carry payload.  GPS packets
// are 72 information bits (9 bytes) coded into 32 bytes (modeled as
// shortened RS(32,9); see DESIGN.md).
//
// Beyond the paper's three uplink kinds (data / reservation /
// registration) this implementation adds two optional ones:
//   kDeregistration — in-band sign-off (the paper mentions sign-off but
//                     not its mechanism),
//   kForwardAck     — selective acknowledgment of forward-channel packets,
//                     used only when MacConfig::downlink_arq is enabled
//                     (the paper leaves the forward channel unacknowledged
//                     to save reverse bandwidth; the ablation bench
//                     quantifies that trade).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "fec/gf256.h"
#include "mac/ids.h"

namespace osumac::mac {

/// Information bytes per regular packet (RS(64,48) payload).
inline constexpr int kPacketInfoBytes = 48;
/// In-band MAC header size within a regular packet.
inline constexpr int kPacketHeaderBytes = 4;
/// User payload capacity of one regular data packet.
inline constexpr int kPacketPayloadBytes = kPacketInfoBytes - kPacketHeaderBytes;  // 44

/// One serialized information block, held inline: a regular packet's 48
/// bytes, one of the two control-field blocks, or a GPS report's 9.  Reads
/// as a contiguous range, so it converts to std::span<const fec::GfElem>.
class InfoBlock {
 public:
  InfoBlock() = default;
  /// Copies `bytes` (at most kPacketInfoBytes of them).
  explicit InfoBlock(std::span<const fec::GfElem> bytes);

  std::size_t size() const { return size_; }
  const fec::GfElem* data() const { return bytes_.data(); }
  const fec::GfElem* begin() const { return data(); }
  const fec::GfElem* end() const { return data() + size_; }
  fec::GfElem operator[](std::size_t i) const { return bytes_[i]; }
  fec::GfElem& operator[](std::size_t i) { return bytes_[i]; }

 private:
  std::array<fec::GfElem, kPacketInfoBytes> bytes_{};
  std::size_t size_ = 0;
};

/// Kind discriminator carried in the header's top bits.
enum class PacketKind : std::uint8_t {
  kData = 0,           ///< data fragment (granted slot or contention slot)
  kReservation = 1,    ///< explicit slot reservation request
  kRegistration = 2,   ///< registration request from an unregistered mobile
  kDeregistration = 3, ///< in-band sign-off
  kForwardAck = 4,     ///< downlink ARQ acknowledgments (extension)
};

/// Header of a regular uplink packet.
///
/// Wire layout (4 bytes = 32 bits, MSB first):
///   kind:3  src:6  seq:11  more_slots:5  frag_index:7
/// `more_slots` is the implicit-reservation field of Section 3.1: the
/// number of additional reverse data slots the subscriber wants next cycle.
struct PacketHeader {
  PacketKind kind = PacketKind::kData;
  UserId src = kNoUser;
  std::uint16_t seq = 0;       ///< per-subscriber packet sequence (11 bits)
  std::uint8_t more_slots = 0; ///< piggybacked demand, 0..31
  std::uint8_t frag_index = 0; ///< fragment index within the message (7 bits)
};

/// A regular uplink data packet: header + payload fragment of a message.
struct DataPacket {
  PacketHeader header;
  /// Destination EIN for subscriber-to-subscriber messages; 0 means the
  /// message terminates at the infrastructure (plain uplink).
  Ein dest_ein = 0;
  std::uint32_t message_id = 0;  ///< carried in the first payload bytes
  std::uint8_t frag_count = 0;   ///< total fragments of the message
  std::uint16_t payload_bytes = 0;  ///< fragment length (<= kPacketPayloadBytes)
  // The payload body itself is a synthetic fill pattern; only its length
  // matters to the MAC and the metrics.
};

/// Cap on the slot count a single reservation or piggyback may request.
inline constexpr int kMaxSlotsPerRequest = 32;

/// Explicit reservation request (sent in a contention slot).
struct ReservationPacket {
  UserId src = kNoUser;
  std::uint8_t slots_requested = 0;
};

/// Registration request (sent in a contention slot by an unregistered unit).
struct RegistrationPacket {
  Ein ein = 0;
  bool wants_gps = false;
};

/// In-band sign-off.  Idempotent: the EIN confirms the identity even if
/// the base station already released the user ID.
struct DeregistrationPacket {
  UserId src = kNoUser;
  Ein ein = 0;
};

/// One forward-packet acknowledgment.
struct ForwardAckEntry {
  std::uint16_t message_id_low = 0;  ///< low 16 bits of the message id
  std::uint8_t frag_index = 0;
  friend bool operator==(const ForwardAckEntry&, const ForwardAckEntry&) = default;
};

/// Maximum acknowledgments per kForwardAck packet.
inline constexpr int kMaxForwardAcks = 10;

/// Selective downlink acknowledgment packet (extension; downlink_arq).
struct ForwardAckPacket {
  PacketHeader header;  ///< kind = kForwardAck; more_slots usable
  int count = 0;
  std::array<ForwardAckEntry, kMaxForwardAcks> acks{};
};

/// GPS location report: 72 information bits.
/// Wire layout: ein:16  latitude:24  longitude:24  timestamp:8 (cycle LSBs).
struct GpsPacket {
  Ein ein = 0;
  std::uint32_t latitude = 0;   ///< quantized position (24 bits)
  std::uint32_t longitude = 0;  ///< quantized position (24 bits)
  std::uint8_t timestamp = 0;
};

/// Downlink data packet (forward channel).
struct ForwardDataPacket {
  UserId dest = kNoUser;
  std::uint32_t message_id = 0;
  std::uint8_t frag_index = 0;
  std::uint8_t frag_count = 0;
  std::uint16_t payload_bytes = 0;
};

/// Any uplink packet, as decoded by the base station.
struct UplinkPacket {
  PacketKind kind = PacketKind::kData;
  std::optional<DataPacket> data;
  std::optional<ReservationPacket> reservation;
  std::optional<RegistrationPacket> registration;
  std::optional<DeregistrationPacket> deregistration;
  std::optional<ForwardAckPacket> forward_ack;
};

// --- serialization ---------------------------------------------------------
// Regular packets serialize to exactly kPacketInfoBytes (one RS(64,48)
// information block); GPS packets to 9 bytes (one RS(32,9) block).

/// Serializes an uplink data packet into a 48-byte info block.
InfoBlock SerializeDataPacket(const DataPacket& p);
/// Serializes a reservation packet.
InfoBlock SerializeReservationPacket(const ReservationPacket& p);
/// Serializes a registration packet.
InfoBlock SerializeRegistrationPacket(const RegistrationPacket& p);
/// Serializes a deregistration packet.
InfoBlock SerializeDeregistrationPacket(const DeregistrationPacket& p);
/// Serializes a forward-ACK packet.
InfoBlock SerializeForwardAckPacket(const ForwardAckPacket& p);
/// Serializes a GPS report into a 9-byte info block.
InfoBlock SerializeGpsPacket(const GpsPacket& p);
/// Serializes a forward data packet into a 48-byte info block.
InfoBlock SerializeForwardDataPacket(const ForwardDataPacket& p);

/// Parses an uplink info block (48 bytes).  Returns nullopt on a malformed
/// block (e.g. unknown kind) — treated as a packet loss by the caller.
std::optional<UplinkPacket> ParseUplinkPacket(std::span<const fec::GfElem> info);
/// Parses a GPS info block (9 bytes).
std::optional<GpsPacket> ParseGpsPacket(std::span<const fec::GfElem> info);
/// Parses a forward data packet info block.
std::optional<ForwardDataPacket> ParseForwardDataPacket(
    std::span<const fec::GfElem> info);

}  // namespace osumac::mac
