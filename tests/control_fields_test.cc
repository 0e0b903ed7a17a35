// Tests for control-field serialization (Section 3.1, Fig. 2): the 630-bit
// layout carried in two RS(64,48) codewords.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "fec/reed_solomon.h"
#include "mac/control_fields.h"

namespace osumac::mac {
namespace {

ControlFields MakeBusyControlFields() {
  ControlFields cf;
  cf.cycle = 0xABCD;
  for (int i = 0; i < 5; ++i) cf.gps_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i);
  cf.reverse_schedule[2] = 10;
  cf.reverse_schedule[3] = 10;
  cf.reverse_schedule[7] = 12;
  for (int i = 0; i < kForwardDataSlots; i += 3) {
    cf.forward_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i % 60);
  }
  cf.reverse_acks[1] = 10;
  cf.reverse_acks[7] = 12;
  cf.gps_ack_bitmap = 0b00011111;
  cf.grant_count = 2;
  cf.grants[0] = {0x1234, 20};
  cf.grants[1] = {0x5678, 21};
  cf.late_ack = 12;
  cf.late_grant = RegistrationGrant{0x9ABC, 22};
  cf.paged_count = 3;
  cf.paging[0] = 0x1111;
  cf.paging[1] = 0x2222;
  cf.paging[2] = 0x3333;
  return cf;
}

TEST(ControlFieldsTest, TotalBitsMatchPaper) {
  EXPECT_EQ(kControlFieldBits, 630);
  EXPECT_EQ(kControlFieldReservedBits, 138);  // 768 - 630
}

TEST(ControlFieldsTest, SerializesToTwoInfoBlocks) {
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(ControlFields{});
  EXPECT_EQ(blocks[0].size(), 48u);
  EXPECT_EQ(blocks[1].size(), 48u);
}

TEST(ControlFieldsTest, RoundTripEmpty) {
  const ControlFields cf;
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(cf);
  const auto parsed = ParseControlFields(blocks[0], blocks[1]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, cf);
}

TEST(ControlFieldsTest, RoundTripBusy) {
  const ControlFields cf = MakeBusyControlFields();
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(cf);
  const auto parsed = ParseControlFields(blocks[0], blocks[1]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, cf);
}

TEST(ControlFieldsTest, SecondSetFlagRoundTrips) {
  ControlFields cf = MakeBusyControlFields();
  cf.is_second_set = true;
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(cf);
  const auto parsed = ParseControlFields(blocks[0], blocks[1]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_second_set);
  EXPECT_EQ(parsed->late_ack, cf.late_ack);
  ASSERT_TRUE(parsed->late_grant.has_value());
  EXPECT_EQ(parsed->late_grant->ein, 0x9ABC);
}

TEST(ControlFieldsTest, NoLateGrantStaysAbsent) {
  ControlFields cf = MakeBusyControlFields();
  cf.late_grant.reset();
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(cf);
  const auto parsed = ParseControlFields(blocks[0], blocks[1]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->late_grant.has_value());
}

TEST(ControlFieldsTest, WrongBlockSizeRejected) {
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(ControlFields{});
  std::vector<fec::GfElem> short_block(blocks[0].begin(), blocks[0].end() - 1);
  EXPECT_FALSE(ParseControlFields(short_block, blocks[1]).has_value());
  EXPECT_FALSE(ParseControlFields(blocks[0], short_block).has_value());
}

TEST(ControlFieldsTest, ActiveGpsCountAndFormat) {
  ControlFields cf;
  EXPECT_EQ(cf.ActiveGpsCount(), 0);
  EXPECT_EQ(cf.Format(), ReverseFormat::kFormat2);
  for (int i = 0; i < 4; ++i) cf.gps_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i);
  EXPECT_EQ(cf.ActiveGpsCount(), 4);
  EXPECT_EQ(cf.Format(), ReverseFormat::kFormat1);
}

TEST(ControlFieldsTest, SurvivesRsEncodingWithCorrectableErrors) {
  // Control fields are protected like everything else: inject up to t = 8
  // symbol errors per codeword and recover them bit-exactly.
  Rng rng(77);
  const ControlFields cf = MakeBusyControlFields();
  const std::array<InfoBlock, 2> blocks = SerializeControlFields(cf);
  const auto& rs = fec::ReedSolomon::Osu6448();
  std::array<InfoBlock, 2> decoded;
  for (int b = 0; b < 2; ++b) {
    auto cw = rs.Encode(blocks[static_cast<std::size_t>(b)]);
    for (int e = 0; e < 8; ++e) {
      cw[static_cast<std::size_t>(rng.UniformInt(0, 63))] ^=
          static_cast<fec::GfElem>(rng.UniformInt(1, 255));
    }
    const auto result = rs.Decode(cw);
    ASSERT_TRUE(result.has_value());
    decoded[static_cast<std::size_t>(b)] = InfoBlock(result->data);
  }
  const auto parsed = ParseControlFields(decoded[0], decoded[1]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, cf);
}

TEST(ControlFieldsTest, RandomValidFieldsRoundTrip) {
  // Any ControlFields whose values fit their wire widths survives the
  // serialize/parse round trip exactly.
  Rng rng(78);
  const auto uid = [&rng] { return static_cast<UserId>(rng.UniformInt(0, kNoUser)); };
  const auto ein = [&rng] { return static_cast<Ein>(rng.UniformInt(0, 0xFFFF)); };
  for (int trial = 0; trial < 500; ++trial) {
    ControlFields cf;
    cf.cycle = static_cast<std::uint16_t>(rng.UniformInt(0, 0xFFFF));
    cf.is_second_set = rng.UniformInt(0, 1) != 0;
    for (UserId& u : cf.gps_schedule) u = uid();
    for (UserId& u : cf.reverse_schedule) u = uid();
    for (UserId& u : cf.forward_schedule) u = uid();
    for (UserId& u : cf.reverse_acks) u = uid();
    cf.gps_ack_bitmap = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    cf.grant_count = static_cast<int>(rng.UniformInt(0, kMaxRegistrationGrants));
    for (RegistrationGrant& g : cf.grants) g = {ein(), uid()};
    cf.late_ack = uid();
    if (rng.UniformInt(0, 1) != 0) cf.late_grant = RegistrationGrant{ein(), uid()};
    cf.paged_count = static_cast<int>(rng.UniformInt(0, kMaxPagedUsers));
    for (Ein& e : cf.paging) e = ein();

    const std::array<InfoBlock, 2> blocks = SerializeControlFields(cf);
    const auto parsed = ParseControlFields(blocks[0], blocks[1]);
    ASSERT_TRUE(parsed.has_value()) << "trial " << trial;
    ASSERT_EQ(*parsed, cf) << "trial " << trial;
  }
}

}  // namespace
}  // namespace osumac::mac
