#include "mac/control_fields.h"

#include <algorithm>

#include "common/bitio.h"
#include "common/check.h"
#include "phy/phy_params.h"

namespace osumac::mac {

int ControlFields::ActiveGpsCount() const {
  int count = 0;
  for (UserId uid : gps_schedule) {
    if (uid != kNoUser) ++count;
  }
  return count;
}

std::array<InfoBlock, 2> SerializeControlFields(const ControlFields& cf) {
  BitWriter w;
  w.Write(cf.cycle, 16);
  w.Write(cf.is_second_set ? 1 : 0, 1);
  w.Write(cf.late_grant.has_value() ? 1 : 0, 1);
  for (UserId uid : cf.gps_schedule) w.Write(uid, kUserIdBits);
  for (UserId uid : cf.reverse_schedule) w.Write(uid, kUserIdBits);
  for (UserId uid : cf.forward_schedule) w.Write(uid, kUserIdBits);
  for (UserId uid : cf.reverse_acks) w.Write(uid, kUserIdBits);
  w.Write(cf.gps_ack_bitmap, 8);
  OSUMAC_CHECK(cf.grant_count >= 0 && cf.grant_count <= kMaxRegistrationGrants);
  w.Write(static_cast<std::uint64_t>(cf.grant_count), 2);
  for (const RegistrationGrant& g : cf.grants) {
    w.Write(g.ein, kEinBits);
    w.Write(g.user_id, kUserIdBits);
  }
  w.Write(cf.late_ack, kUserIdBits);
  if (cf.late_grant.has_value()) {
    w.Write(cf.late_grant->ein, kEinBits);
    w.Write(cf.late_grant->user_id, kUserIdBits);
  } else {
    w.WriteZeros(kEinBits + kUserIdBits);
  }
  OSUMAC_CHECK(cf.paged_count >= 0 && cf.paged_count <= kMaxPagedUsers);
  w.Write(static_cast<std::uint64_t>(cf.paged_count), 4);
  for (Ein ein : cf.paging) w.Write(ein, kEinBits);
  w.WriteZeros(14);  // reserved pad to the paper's 630-bit total
  OSUMAC_CHECK_EQ(w.bit_size(), kControlFieldBits);
  w.WriteZeros(kControlFieldReservedBits);  // reserved bits of the 2 codewords
  OSUMAC_CHECK_EQ(w.bit_size(), 2 * phy::kRsInfoBits);

  const std::span<const fec::GfElem> bytes = w.bytes();
  return {InfoBlock(bytes.first(phy::kRsInfoBytes)),
          InfoBlock(bytes.subspan(phy::kRsInfoBytes))};
}

std::optional<ControlFields> ParseControlFields(std::span<const fec::GfElem> block0,
                                                std::span<const fec::GfElem> block1) {
  if (static_cast<int>(block0.size()) != phy::kRsInfoBytes ||
      static_cast<int>(block1.size()) != phy::kRsInfoBytes) {
    return std::nullopt;
  }
  // Fields straddle the block boundary: join the blocks on the stack.
  std::array<fec::GfElem, 2 * phy::kRsInfoBytes> bytes;
  std::copy(block0.begin(), block0.end(), bytes.begin());
  std::copy(block1.begin(), block1.end(), bytes.begin() + phy::kRsInfoBytes);
  BitReader r(bytes);

  ControlFields cf;
  cf.cycle = static_cast<std::uint16_t>(r.Read(16));
  cf.is_second_set = r.Read(1) != 0;
  const bool has_late_grant = r.Read(1) != 0;
  for (UserId& uid : cf.gps_schedule) uid = static_cast<UserId>(r.Read(kUserIdBits));
  for (UserId& uid : cf.reverse_schedule) uid = static_cast<UserId>(r.Read(kUserIdBits));
  for (UserId& uid : cf.forward_schedule) uid = static_cast<UserId>(r.Read(kUserIdBits));
  for (UserId& uid : cf.reverse_acks) uid = static_cast<UserId>(r.Read(kUserIdBits));
  cf.gps_ack_bitmap = static_cast<std::uint8_t>(r.Read(8));
  cf.grant_count = static_cast<int>(r.Read(2));
  if (cf.grant_count > kMaxRegistrationGrants) return std::nullopt;
  for (RegistrationGrant& g : cf.grants) {
    g.ein = static_cast<Ein>(r.Read(kEinBits));
    g.user_id = static_cast<UserId>(r.Read(kUserIdBits));
  }
  cf.late_ack = static_cast<UserId>(r.Read(kUserIdBits));
  RegistrationGrant late;
  late.ein = static_cast<Ein>(r.Read(kEinBits));
  late.user_id = static_cast<UserId>(r.Read(kUserIdBits));
  if (has_late_grant) cf.late_grant = late;
  cf.paged_count = static_cast<int>(r.Read(4));
  if (cf.paged_count > kMaxPagedUsers) return std::nullopt;
  for (Ein& ein : cf.paging) ein = static_cast<Ein>(r.Read(kEinBits));
  r.Skip(14);
  if (r.overflowed()) return std::nullopt;
  return cf;
}

}  // namespace osumac::mac
