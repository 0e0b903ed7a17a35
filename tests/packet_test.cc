// Tests for packet serialization (regular uplink, GPS, forward).
#include <gtest/gtest.h>

#include "mac/packet.h"

namespace osumac::mac {
namespace {

TEST(PacketTest, SizesMatchPaper) {
  EXPECT_EQ(kPacketInfoBytes, 48);     // RS(64,48) information bytes
  EXPECT_EQ(kPacketPayloadBytes, 44);  // 4-byte in-band header
}

TEST(PacketTest, DataPacketRoundTrip) {
  DataPacket p;
  p.header.src = 17;
  p.header.seq = 0x5BC;  // 11-bit sequence field
  p.header.more_slots = 13;
  p.header.frag_index = 5;
  p.dest_ein = 0x4321;
  p.message_id = 0xDEADBEEF;
  p.frag_count = 9;
  p.payload_bytes = 44;
  const InfoBlock info = SerializeDataPacket(p);
  EXPECT_EQ(info.size(), 48u);
  const auto parsed = ParseUplinkPacket(info);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, PacketKind::kData);
  ASSERT_TRUE(parsed->data.has_value());
  EXPECT_EQ(parsed->data->header.src, 17);
  EXPECT_EQ(parsed->data->header.seq, 0x5BC);
  EXPECT_EQ(parsed->data->header.more_slots, 13);
  EXPECT_EQ(parsed->data->header.frag_index, 5);
  EXPECT_EQ(parsed->data->dest_ein, 0x4321);
  EXPECT_EQ(parsed->data->message_id, 0xDEADBEEF);
  EXPECT_EQ(parsed->data->frag_count, 9);
  EXPECT_EQ(parsed->data->payload_bytes, 44);
}

TEST(PacketTest, DeregistrationRoundTrip) {
  DeregistrationPacket p;
  p.src = 12;
  p.ein = 0x7777;
  const auto parsed = ParseUplinkPacket(SerializeDeregistrationPacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, PacketKind::kDeregistration);
  ASSERT_TRUE(parsed->deregistration.has_value());
  EXPECT_EQ(parsed->deregistration->src, 12);
  EXPECT_EQ(parsed->deregistration->ein, 0x7777);
}

TEST(PacketTest, ForwardAckRoundTrip) {
  ForwardAckPacket p;
  p.header.src = 20;
  p.header.more_slots = 4;
  p.count = 3;
  p.acks[0] = {0x1111, 0};
  p.acks[1] = {0x1111, 1};
  p.acks[2] = {0x2222, 5};
  const auto parsed = ParseUplinkPacket(SerializeForwardAckPacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, PacketKind::kForwardAck);
  ASSERT_TRUE(parsed->forward_ack.has_value());
  EXPECT_EQ(parsed->forward_ack->header.src, 20);
  EXPECT_EQ(parsed->forward_ack->header.more_slots, 4);
  EXPECT_EQ(parsed->forward_ack->count, 3);
  EXPECT_EQ(parsed->forward_ack->acks[0], (ForwardAckEntry{0x1111, 0}));
  EXPECT_EQ(parsed->forward_ack->acks[2], (ForwardAckEntry{0x2222, 5}));
}

TEST(PacketTest, ReservationRoundTrip) {
  ReservationPacket p;
  p.src = 42;
  p.slots_requested = 7;
  const auto parsed = ParseUplinkPacket(SerializeReservationPacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, PacketKind::kReservation);
  ASSERT_TRUE(parsed->reservation.has_value());
  EXPECT_EQ(parsed->reservation->src, 42);
  EXPECT_EQ(parsed->reservation->slots_requested, 7);
}

TEST(PacketTest, RegistrationRoundTrip) {
  for (bool gps : {false, true}) {
    RegistrationPacket p;
    p.ein = 0xCAFE;
    p.wants_gps = gps;
    const auto parsed = ParseUplinkPacket(SerializeRegistrationPacket(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, PacketKind::kRegistration);
    ASSERT_TRUE(parsed->registration.has_value());
    EXPECT_EQ(parsed->registration->ein, 0xCAFE);
    EXPECT_EQ(parsed->registration->wants_gps, gps);
  }
}

TEST(PacketTest, GpsPacketIs72BitsInNineBytes) {
  GpsPacket p;
  p.ein = 0xBEEF;
  p.latitude = 0x123456;
  p.longitude = 0xABCDEF;
  p.timestamp = 0x42;
  const InfoBlock info = SerializeGpsPacket(p);
  EXPECT_EQ(info.size(), 9u) << "72 information bits";
  const auto parsed = ParseGpsPacket(info);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ein, 0xBEEF);
  EXPECT_EQ(parsed->latitude, 0x123456u);
  EXPECT_EQ(parsed->longitude, 0xABCDEFu);
  EXPECT_EQ(parsed->timestamp, 0x42);
}

TEST(PacketTest, ForwardDataRoundTrip) {
  ForwardDataPacket p;
  p.dest = 33;
  p.message_id = 777;
  p.frag_index = 2;
  p.frag_count = 4;
  p.payload_bytes = 10;
  const auto parsed = ParseForwardDataPacket(SerializeForwardDataPacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dest, 33);
  EXPECT_EQ(parsed->message_id, 777u);
  EXPECT_EQ(parsed->frag_index, 2);
  EXPECT_EQ(parsed->frag_count, 4);
  EXPECT_EQ(parsed->payload_bytes, 10);
}

TEST(PacketTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseUplinkPacket(std::vector<fec::GfElem>(10, 0)).has_value());
  EXPECT_FALSE(ParseGpsPacket(std::vector<fec::GfElem>(48, 0)).has_value());
  EXPECT_FALSE(ParseForwardDataPacket(std::vector<fec::GfElem>(9, 0)).has_value());
  // Unknown kinds (5, 6, 7) rejected.
  for (int kind : {5, 6, 7}) {
    std::vector<fec::GfElem> bogus(48, 0);
    bogus[0] = static_cast<fec::GfElem>(kind << 5);
    EXPECT_FALSE(ParseUplinkPacket(bogus).has_value()) << kind;
  }
}

TEST(PacketTest, OversizedPayloadRejected) {
  DataPacket p;
  p.payload_bytes = 44;
  InfoBlock info = SerializeDataPacket(p);
  // Corrupt the payload_bytes field (bits 88..103 of the block) to 2000.
  info[11] = 0x07;
  info[12] = 0xD0;
  const auto parsed = ParseUplinkPacket(info);
  EXPECT_FALSE(parsed.has_value());
}

}  // namespace
}  // namespace osumac::mac
