// Tests for erasure side-information decoding (extension; the paper's
// burst-erasure reference [2]): receivers that can flag fade-period symbols
// as erasures let RS(64,48) absorb bursts up to twice as long.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fec/reed_solomon.h"
#include "mac/cell.h"
#include "phy/channel.h"
#include "phy/error_model.h"

namespace osumac {
namespace {

phy::GilbertElliottModel::Params HarshFades() {
  // Mean fade ~6.7 symbols with a dense error rate inside the fade: deep
  // enough that errors-only decoding (t = 8) loses most faded codewords,
  // short enough that the 15-erasure budget absorbs nearly all of them —
  // the regime erasure side information is built for.
  phy::GilbertElliottModel::Params p;
  p.p_good_to_bad = 0.01;
  p.p_bad_to_good = 0.15;
  p.error_prob_good = 0.0;
  p.error_prob_bad = 0.9;
  return p;
}

/// Passes `codewords` through `model` and the decoder; nullopt on failure.
std::optional<std::vector<std::vector<fec::GfElem>>> Decode(
    const std::vector<std::vector<fec::GfElem>>& codewords, const fec::ReedSolomon& rs,
    phy::SymbolErrorModel& model, bool side_info) {
  Rng unused(0);
  phy::ChannelScratch scratch;
  std::vector<std::vector<fec::GfElem>> decoded;
  if (!phy::ApplyChannelInto(codewords, rs, model, unused, scratch, decoded, nullptr,
                             side_info)) {
    return std::nullopt;
  }
  return decoded;
}

TEST(ErasureSideInfoTest, GilbertElliottReportsFadedSymbols) {
  phy::GilbertElliottModel model(HarshFades(), 401);
  int reported = 0;
  int corrupted = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<fec::GfElem> word(64, 0);
    std::vector<int> erasures;
    corrupted += model.CorruptWithSideInfo(word, &erasures);
    reported += static_cast<int>(erasures.size());
    for (int pos : erasures) {
      ASSERT_GE(pos, 0);
      ASSERT_LT(pos, 64);
    }
  }
  EXPECT_GT(reported, 0);
  EXPECT_GE(reported, corrupted) << "every corrupted symbol sits inside a fade "
                                    "(error_prob_good = 0), so side info covers it";
}

TEST(ErasureSideInfoTest, SideInfoRoughlyDoublesBurstTolerance) {
  // Same channel statistics, two receivers: one decodes errors-only, one
  // uses the fade flags as erasures.  The erasure-aware receiver must lose
  // far fewer codewords.
  const auto& rs = fec::ReedSolomon::Osu6448();
  auto run = [&](bool side_info) {
    phy::GilbertElliottModel model(HarshFades(), 402);  // same noise per mode
    int failures = 0;
    const int words = 3000;
    for (int i = 0; i < words; ++i) {
      std::vector<fec::GfElem> data(48, static_cast<fec::GfElem>(i & 0xFF));
      const std::vector<std::vector<fec::GfElem>> cw = {rs.Encode(data)};
      const auto decoded = Decode(cw, rs, model, side_info);
      if (!decoded.has_value()) {
        ++failures;
      } else {
        EXPECT_EQ(decoded->front(), data) << "never silently wrong";
      }
    }
    return failures;
  };
  const int without = run(false);
  const int with = run(true);
  EXPECT_GT(without, 20) << "the fades must actually hurt the plain receiver";
  EXPECT_LT(with, without / 2) << "side info must absorb most fade bursts";
}

TEST(ErasureSideInfoTest, EndToEndGpsLossDrops) {
  auto run = [](bool side_info) {
    mac::CellConfig config;
    config.seed = 403;
    config.erasure_side_information = side_info;
    config.reverse.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
    config.reverse.ge = HarshFades();
    mac::Cell cell(config);
    for (int i = 0; i < 4; ++i) cell.PowerOn(cell.AddSubscriber(true));
    cell.RunCycles(20);
    cell.ResetStats();
    cell.RunCycles(300);
    const auto& bs = cell.base_station().counters();
    const double total =
        static_cast<double>(bs.gps_packets_received + bs.gps_packets_failed);
    return total > 0 ? static_cast<double>(bs.gps_packets_failed) / total : 0.0;
  };
  const double loss_without = run(false);
  const double loss_with = run(true);
  EXPECT_GT(loss_without, 0.02);
  EXPECT_LT(loss_with, loss_without * 0.6)
      << "fade flags must rescue a large share of GPS reports";
}

TEST(ErasureSideInfoTest, NoEffectOnUniformChannels) {
  // The uniform model has no side information; both modes behave alike.
  const auto& rs = fec::ReedSolomon::Osu6448();
  std::vector<fec::GfElem> data(48, 0x5A);
  const std::vector<std::vector<fec::GfElem>> cw = {rs.Encode(data)};
  phy::UniformErrorModel m1(0.05, 404), m2(0.05, 404);
  for (int i = 0; i < 200; ++i) {
    const auto a = Decode(cw, rs, m1, false);
    const auto b = Decode(cw, rs, m2, true);
    EXPECT_EQ(a.has_value(), b.has_value());
  }
}

}  // namespace
}  // namespace osumac
