// Unit tests for the PHY layer: Table-1 parameters, error models, the
// half-duplex radio, and the collision-detecting reverse channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fec/reed_solomon.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/phy_params.h"
#include "phy/radio.h"

namespace osumac::phy {
namespace {

// --- Table 1 parameters -------------------------------------------------------

TEST(PhyParamsTest, Table1GeneralCharacteristics) {
  EXPECT_EQ(kForwardSymbolRate, 3200);
  EXPECT_EQ(kReverseSymbolRate, 2400);
  EXPECT_EQ(kBitsPerSymbol, 2);
  EXPECT_EQ(kInfoSymbolsPerPilotFrame, 128);
  EXPECT_EQ(kSymbolsPerPilotFrame, 150);
  EXPECT_EQ(kRsInfoBits, 384);
  EXPECT_EQ(kRsCodewordBits, 512);
  EXPECT_NEAR(kPilotFrameEfficiency, 128.0 / 150.0, 1e-12);
}

TEST(PhyParamsTest, Table1PacketTimes) {
  EXPECT_EQ(kPilotFramesPerCodeword, 2);
  EXPECT_EQ(kRegularPacketSymbols, 300);
  EXPECT_DOUBLE_EQ(ToSeconds(kRegularPacketForwardTicks), 0.09375);
  EXPECT_DOUBLE_EQ(ToSeconds(kRegularPacketReverseTicks), 0.125);
  EXPECT_DOUBLE_EQ(ToSeconds(kForwardCyclePreambleTicks), 0.09375);
}

TEST(PhyParamsTest, Table1ReversePacketFraming) {
  // GPS: 64 preamble + 128 body + 18 guard = 210 symbols = 0.0875 s.
  EXPECT_EQ(kGpsSlotSymbols, 210);
  EXPECT_DOUBLE_EQ(ToSeconds(kGpsSlotTicks), 0.0875);
  EXPECT_EQ(kGpsInfoBits, 72);
  EXPECT_EQ(kGpsCodedBytes, 32);
  // Regular: 600 preamble + 300 body + 51 postamble + 18 guard = 969.
  EXPECT_EQ(kReverseDataSlotSymbols, 969);
  EXPECT_DOUBLE_EQ(ToSeconds(kReverseDataSlotTicks), 0.40375);
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(kRegularPreambleSymbols)), 0.25);
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(kRegularPostambleSymbols)), 0.02125);
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(kPacketGuardSymbols)), 0.0075);
}

TEST(PhyParamsTest, LinkRates) {
  EXPECT_EQ(kForwardBitRate, 6400);  // "up to 6.4 kbps"
  EXPECT_EQ(kReverseBitRate, 4800);  // "4.8 kbps"
}

// --- error models --------------------------------------------------------------

TEST(ErrorModelTest, PerfectChannelNeverCorrupts) {
  PerfectChannel model;
  std::vector<fec::GfElem> word(64, 0xAB);
  EXPECT_EQ(model.Corrupt(word), 0);
  EXPECT_TRUE(std::all_of(word.begin(), word.end(), [](auto b) { return b == 0xAB; }));
}

TEST(ErrorModelTest, UniformModelHitsAtConfiguredRate) {
  UniformErrorModel model(0.05, 2);
  int hits = 0;
  const int words = 2000;
  for (int i = 0; i < words; ++i) {
    std::vector<fec::GfElem> word(64, 0);
    hits += model.Corrupt(word);
  }
  const double rate = static_cast<double>(hits) / (words * 64.0);
  EXPECT_NEAR(rate, 0.05, 0.005);
}

TEST(ErrorModelTest, CorruptedByteAlwaysDiffers) {
  UniformErrorModel model(1.0, 3);
  std::vector<fec::GfElem> word(64, 0x5A);
  EXPECT_EQ(model.Corrupt(word), 64);
  for (auto b : word) EXPECT_NE(b, 0x5A);
}

TEST(ErrorModelTest, ReturnedHitCountIsExact) {
  // ApplyChannelInto skips the RS decoder on a 0-hit word, so the count
  // must match the bytes that actually changed.
  UniformErrorModel uniform(0.1, 12);
  GilbertElliottModel ge({0.05, 0.2, 0.02, 0.5}, 13);
  for (SymbolErrorModel* model : {static_cast<SymbolErrorModel*>(&uniform),
                                  static_cast<SymbolErrorModel*>(&ge)}) {
    for (int i = 0; i < 500; ++i) {
      std::vector<fec::GfElem> word(64, 0x33);
      const int hits = model->Corrupt(word);
      EXPECT_EQ(hits, std::count_if(word.begin(), word.end(),
                                    [](auto b) { return b != 0x33; }));
    }
  }
}

TEST(ErrorModelTest, GilbertElliottProducesBurstRegimes) {
  // The paper's field observation: either few errors (correctable) or many
  // (decoder failure).  With a bursty channel the per-codeword error count
  // distribution must be bimodal: mostly <= t, occasionally >> t.
  GilbertElliottModel::Params p;
  p.p_good_to_bad = 0.002;
  p.p_bad_to_good = 0.05;
  p.error_prob_good = 1e-4;
  p.error_prob_bad = 0.5;
  GilbertElliottModel model(p, 4);
  int clean_or_light = 0;
  int heavy = 0;
  const int words = 5000;
  for (int i = 0; i < words; ++i) {
    std::vector<fec::GfElem> word(64, 0);
    const int hits = model.Corrupt(word);
    if (hits <= 8) ++clean_or_light;
    if (hits > 12) ++heavy;
  }
  EXPECT_GT(clean_or_light, words * 7 / 10);
  EXPECT_GT(heavy, 10) << "fades must occasionally swamp a codeword";
}

TEST(ErrorModelTest, TwoRegimeDecodeBehaviourThroughRsCodec) {
  // End-to-end: Gilbert-Elliott + RS(64,48) either corrects or fails;
  // silent corruption must never reach the caller.
  Rng rng(5);
  const auto& rs = fec::ReedSolomon::Osu6448();
  GilbertElliottModel model(GilbertElliottModel::Params{}, 5);
  int corrected = 0, failed = 0, wrong = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<fec::GfElem> data(48);
    for (auto& b : data) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
    auto cw = rs.Encode(data);
    model.Corrupt(cw);
    const auto result = rs.Decode(cw);
    if (!result.has_value()) {
      ++failed;
    } else if (result->data != data) {
      ++wrong;
    } else if (result->errors_corrected > 0) {
      ++corrected;
    }
  }
  EXPECT_EQ(wrong, 0) << "no silent corruption";
  EXPECT_GT(corrected + failed, 0) << "the channel must actually do something";
}

// --- error models against exact oracles ------------------------------------------
//
// The skip-samplers draw one variate per event rather than one per symbol,
// so these tests pin them to the per-symbol processes their parameters
// describe: the per-codeword hit histogram by Pearson chi-square, and the
// Gilbert-Elliott state chain through its erasure flags.

constexpr int kWordLength = 64;

/// Per-codeword hit histogram of `words` successive codewords.
std::vector<long> HitHistogram(SymbolErrorModel& model, int words) {
  std::vector<long> counts(kWordLength + 1, 0);
  std::vector<fec::GfElem> word(kWordLength);
  for (int w = 0; w < words; ++w) {
    ++counts[static_cast<std::size_t>(model.Corrupt(word))];
  }
  return counts;
}

/// True when the Pearson chi-square of `observed` against the probabilities
/// `expected` stays below its 0.1% critical value.  Bins are pooled left to
/// right until each expects >= 5 counts (the usual validity rule).  The
/// critical value is the Wilson-Hilferty approximation, accurate to well
/// under 1% at these degrees of freedom.
::testing::AssertionResult ChiSquareFits(const std::vector<long>& observed,
                                         const std::vector<double>& expected) {
  long total = 0;
  for (long c : observed) total += c;
  std::vector<double> pooled_obs, pooled_exp;
  double obs = 0, exp = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    obs += static_cast<double>(observed[i]);
    exp += expected[i] * static_cast<double>(total);
    if (exp >= 5.0) {
      pooled_obs.push_back(obs);
      pooled_exp.push_back(exp);
      obs = exp = 0;
    }
  }
  pooled_obs.back() += obs;
  pooled_exp.back() += exp;
  double chi2 = 0;
  for (std::size_t i = 0; i < pooled_obs.size(); ++i) {
    const double d = pooled_obs[i] - pooled_exp[i];
    chi2 += d * d / pooled_exp[i];
  }
  const double df = static_cast<double>(pooled_obs.size() - 1);
  const double z = 3.0902;  // standard normal 99.9th percentile
  const double h = 2.0 / (9.0 * df);
  const double critical = df * std::pow(1.0 - h + z * std::sqrt(h), 3);
  if (chi2 < critical) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "chi2 = " << chi2 << " over " << df << " df exceeds " << critical;
}

TEST(ErrorModelOracleTest, UniformHitHistogramIsBinomial) {
  for (const double p : {0.002, 0.05, 0.3}) {
    UniformErrorModel model(p, 101);
    const std::vector<long> observed = HitHistogram(model, 100000);
    std::vector<double> binomial(kWordLength + 1);
    for (int k = 0; k <= kWordLength; ++k) {
      binomial[static_cast<std::size_t>(k)] =
          std::exp(std::lgamma(kWordLength + 1.0) - std::lgamma(k + 1.0) -
                   std::lgamma(kWordLength - k + 1.0) + k * std::log(p) +
                   (kWordLength - k) * std::log1p(-p));
    }
    EXPECT_TRUE(ChiSquareFits(observed, binomial)) << "p = " << p;
  }
}

/// Exact per-codeword hit distribution of the per-symbol Gilbert-Elliott
/// chain: each symbol first draws its state from the previous symbol's,
/// then errs at that state's rate.  Forward recursion over (state, hits),
/// started from the stationary state, which successive codewords are in
/// (the chain mixes as (1 - p_gb - p_bg)^n, far within one codeword here).
std::vector<double> GilbertElliottHitOracle(const GilbertElliottModel::Params& p) {
  const double to_bad[2] = {p.p_good_to_bad, 1.0 - p.p_bad_to_good};  // from G, B
  const double err[2] = {p.error_prob_good, p.error_prob_bad};
  const double bad = p.p_good_to_bad / (p.p_good_to_bad + p.p_bad_to_good);
  // f[s][h]: probability that the symbol just emitted was in state s
  // (0 = Good, 1 = Bad) with h hits so far.
  std::vector<std::vector<double>> f(2, std::vector<double>(kWordLength + 1, 0.0));
  f[0][0] = 1.0 - bad;
  f[1][0] = bad;
  for (int sym = 0; sym < kWordLength; ++sym) {
    std::vector<std::vector<double>> g(2, std::vector<double>(kWordLength + 1, 0.0));
    for (int s = 0; s < 2; ++s) {
      for (int h = 0; h <= sym; ++h) {
        for (int next = 0; next < 2; ++next) {
          const double mass = f[s][h] * (next == 1 ? to_bad[s] : 1.0 - to_bad[s]);
          g[next][h + 1] += mass * err[next];
          g[next][h] += mass * (1.0 - err[next]);
        }
      }
    }
    f = std::move(g);
  }
  std::vector<double> hits(kWordLength + 1);
  for (int h = 0; h <= kWordLength; ++h) hits[h] = f[0][h] + f[1][h];
  return hits;
}

TEST(ErrorModelOracleTest, GilbertElliottHitHistogramMatchesForwardRecursion) {
  // Short, frequent fades with a noisy Good state, so both states and the
  // transitions between them shape the histogram; then the erasure
  // ablation's 6.7-symbol fades.
  const GilbertElliottModel::Params cases[] = {{0.05, 0.2, 0.02, 0.5},
                                               {0.01, 0.15, 1e-4, 0.9}};
  for (const GilbertElliottModel::Params& p : cases) {
    GilbertElliottModel model(p, 202);
    (void)HitHistogram(model, 100);  // leave the all-Good start behind
    EXPECT_TRUE(ChiSquareFits(HitHistogram(model, 100000), GilbertElliottHitOracle(p)))
        << "p_gb = " << p.p_good_to_bad << ", p_bg = " << p.p_bad_to_good;
  }
}

TEST(ErrorModelOracleTest, GilbertElliottFadeOccupancyAndLengthMatchChain) {
  // Every faded symbol is erasure-flagged, so the flags trace the state
  // chain exactly: occupancy p_gb / (p_gb + p_bg), fade length geometric
  // with mean 1 / p_bg.  Fades straddle codewords, so runs are stitched
  // across successive words.
  const double p_gb = 0.05, p_bg = 0.2;
  GilbertElliottModel model({p_gb, p_bg, 0.02, 0.5}, 303);
  std::vector<fec::GfElem> word(kWordLength);
  std::vector<int> erasures;
  (void)HitHistogram(model, 100);  // leave the all-Good start behind
  const int words = 50000;
  long faded = 0, fades = 0;
  bool prev_bad = model.in_bad_state();
  for (int w = 0; w < words; ++w) {
    erasures.clear();
    model.CorruptWithSideInfo(word, &erasures);
    std::vector<bool> bad(kWordLength, false);
    for (int pos : erasures) bad[static_cast<std::size_t>(pos)] = true;
    for (int i = 0; i < kWordLength; ++i) {
      if (bad[i] && !prev_bad) ++fades;
      prev_bad = bad[i];
    }
    faded += static_cast<long>(erasures.size());
  }
  const double symbols = static_cast<double>(words) * kWordLength;
  const double occupancy = p_gb / (p_gb + p_bg);
  // Standard errors: occupancy is a mean of autocorrelated indicators
  // (lag-1 correlation 1 - p_gb - p_bg); fade lengths are i.i.d.
  // geometric with standard deviation sqrt(1 - p_bg) / p_bg.
  const double lambda = 1.0 - p_gb - p_bg;
  const double occupancy_se =
      std::sqrt(occupancy * (1 - occupancy) / symbols * (1 + lambda) / (1 - lambda));
  const double length_se = std::sqrt(1.0 - p_bg) / p_bg / std::sqrt(static_cast<double>(fades));
  EXPECT_NEAR(static_cast<double>(faded) / symbols, occupancy, 4 * occupancy_se);
  EXPECT_NEAR(static_cast<double>(faded) / static_cast<double>(fades), 1.0 / p_bg,
              4 * length_se);
}

// --- radio -----------------------------------------------------------------------

TEST(RadioTest, TxBlocksOverlappingRx) {
  HalfDuplexRadio radio;
  radio.CommitTransmit({1000, 2000});
  EXPECT_FALSE(radio.CanReceive({1500, 2500}));
  EXPECT_FALSE(radio.CanReceive({0, 1001}));
  EXPECT_TRUE(radio.CanReceive({2000 + kHalfDuplexSwitchTicks, 4000}));
  EXPECT_FALSE(radio.CanReceive({2000 + kHalfDuplexSwitchTicks - 1, 4000}))
      << "20 ms switch guard enforced";
}

TEST(RadioTest, RxBlocksOverlappingTx) {
  HalfDuplexRadio radio;
  radio.CommitReceive({5000, 6000});
  EXPECT_FALSE(radio.CanTransmit({5900, 7000}));
  EXPECT_FALSE(radio.CanTransmit({6000, 7000})) << "needs the switch guard";
  EXPECT_TRUE(radio.CanTransmit({6000 + kHalfDuplexSwitchTicks, 7000}));
  EXPECT_TRUE(radio.CanTransmit({0, 5000 - kHalfDuplexSwitchTicks}));
}

TEST(RadioTest, RxDoesNotBlockRx) {
  HalfDuplexRadio radio;
  radio.CommitReceive({0, 1000});
  EXPECT_TRUE(radio.CanReceive({500, 1500})) << "receiving is continuous";
}

TEST(RadioTest, ForgetPrunesOldCommitments) {
  HalfDuplexRadio radio;
  radio.CommitTransmit({0, 100});
  radio.CommitTransmit({10000, 10100});
  radio.Forget(5000);
  EXPECT_EQ(radio.pending_tx(), 1u);
  EXPECT_TRUE(radio.CanReceive({0, 200})) << "old TX no longer blocks";
  EXPECT_FALSE(radio.CanReceive({10000, 10050}));
}

// --- reverse channel ---------------------------------------------------------------

CodedBurst MakeBurst(Interval when, int sender, const fec::ReedSolomon& rs, Rng& rng) {
  std::vector<fec::GfElem> data(static_cast<std::size_t>(rs.k()));
  for (auto& b : data) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
  CodedBurst burst;
  burst.on_air = when;
  burst.sender = sender;
  burst.codewords.push_back(rs.Encode(data));
  return burst;
}

/// Resolves `slot` with one error model for every sender.
SlotReception Resolve(ReverseChannel& ch, Interval slot, const fec::ReedSolomon& rs,
                      const std::function<SymbolErrorModel&(int)>& model_for) {
  Rng unused(0);
  ChannelScratch scratch;
  SlotReception out;
  ch.ResolveSlotPerSenderInto(slot, rs, model_for, unused, scratch, out);
  return out;
}

SlotReception Resolve(ReverseChannel& ch, Interval slot, const fec::ReedSolomon& rs,
                      SymbolErrorModel& model) {
  return Resolve(ch, slot, rs, [&model](int) -> SymbolErrorModel& { return model; });
}

TEST(ReverseChannelTest, IdleSlot) {
  ReverseChannel ch;
  PerfectChannel model;
  const auto r = Resolve(ch, {0, 100}, fec::ReedSolomon::Osu6448(), model);
  EXPECT_EQ(r.outcome, SlotOutcome::kIdle);
}

TEST(ReverseChannelTest, SingleBurstDecodes) {
  ReverseChannel ch;
  PerfectChannel model;
  Rng rng(7);
  const auto& rs = fec::ReedSolomon::Osu6448();
  ch.Transmit(MakeBurst({0, 100}, 3, rs, rng));
  const auto r = Resolve(ch, {0, 100}, rs, model);
  EXPECT_EQ(r.outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(r.sender, 3);
  ASSERT_EQ(r.info.size(), 1u);
  EXPECT_EQ(static_cast<int>(r.info[0].size()), rs.k());
}

TEST(ReverseChannelTest, OverlappingBurstsCollide) {
  ReverseChannel ch;
  PerfectChannel model;
  Rng rng(8);
  const auto& rs = fec::ReedSolomon::Osu6448();
  ch.Transmit(MakeBurst({0, 100}, 1, rs, rng));
  ch.Transmit(MakeBurst({50, 150}, 2, rs, rng));
  const auto r = Resolve(ch, {0, 150}, rs, model);
  EXPECT_EQ(r.outcome, SlotOutcome::kCollision);
  EXPECT_EQ(r.colliders, (std::vector<int>{1, 2}));
}

TEST(ReverseChannelTest, DisjointSlotsResolveIndependently) {
  ReverseChannel ch;
  PerfectChannel model;
  Rng rng(9);
  const auto& rs = fec::ReedSolomon::Osu6448();
  ch.Transmit(MakeBurst({0, 100}, 1, rs, rng));
  ch.Transmit(MakeBurst({200, 300}, 2, rs, rng));
  const auto r1 = Resolve(ch, {0, 100}, rs, model);
  EXPECT_EQ(r1.outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(r1.sender, 1);
  EXPECT_EQ(ch.pending_bursts(), 1u);
  const auto r2 = Resolve(ch, {200, 300}, rs, model);
  EXPECT_EQ(r2.outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(r2.sender, 2);
  EXPECT_EQ(ch.pending_bursts(), 0u);
}

TEST(ReverseChannelTest, HeavyNoiseYieldsDecodeFailureNotCorruption) {
  ReverseChannel ch;
  UniformErrorModel model(0.5, 10);  // way beyond t = 8 correctable symbols
  Rng rng(10);
  const auto& rs = fec::ReedSolomon::Osu6448();
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    ch.Transmit(MakeBurst({i * 100, i * 100 + 50}, 1, rs, rng));
    const auto r = Resolve(ch, {i * 100, i * 100 + 50}, rs, model);
    if (r.outcome == SlotOutcome::kDecodeFailure) ++failures;
  }
  EXPECT_GE(failures, 48) << "overwhelmed decoder must fail, not lie";
}

TEST(ReverseChannelTest, RecycledStorageCarriesTheNewBurst) {
  // Resolved bursts hand their codeword storage to later transmits.  After
  // a decoded slot, a collision and a decode failure, a burst encoded into
  // recycled storage must decode to its own data, not a predecessor's.
  ReverseChannel ch;
  Rng rng(12);
  const auto& rs = fec::ReedSolomon::Osu6448();
  PerfectChannel clean;
  UniformErrorModel noisy(0.5, 12);
  std::set<const fec::GfElem*> words_used;
  const auto send = [&](Interval slot, int sender) {
    std::vector<fec::GfElem> data(static_cast<std::size_t>(rs.k()));
    for (auto& b : data) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
    const std::span<fec::GfElem> word = ch.TransmitWord(slot, sender, 0, rs.n());
    words_used.insert(word.data());
    rs.EncodeInto(data, word);
    return data;
  };
  ChannelScratch scratch;
  SlotReception r;
  Rng unused(0);
  const auto resolve = [&](Interval slot, SymbolErrorModel& model) {
    ch.ResolveSlotPerSenderInto(
        slot, rs, [&model](int) -> SymbolErrorModel& { return model; }, unused, scratch, r);
    return r.outcome;
  };

  (void)send({0, 100}, 1);
  EXPECT_EQ(resolve({0, 100}, clean), SlotOutcome::kDecoded);
  (void)send({200, 300}, 1);
  (void)send({200, 300}, 2);
  EXPECT_EQ(resolve({200, 300}, clean), SlotOutcome::kCollision);
  (void)send({400, 500}, 3);
  EXPECT_EQ(resolve({400, 500}, noisy), SlotOutcome::kDecodeFailure);

  const std::size_t words_before = words_used.size();
  const std::vector<fec::GfElem> fresh = send({600, 700}, 4);
  EXPECT_EQ(words_used.size(), words_before) << "the word reuses a resolved burst's storage";
  ASSERT_EQ(resolve({600, 700}, clean), SlotOutcome::kDecoded);
  EXPECT_EQ(r.sender, 4);
  ASSERT_EQ(r.info.size(), 1u);
  EXPECT_EQ(r.info[0], fresh);

  // Transmit(CodedBurst) copies into the same recycled storage.
  CodedBurst burst = MakeBurst({800, 900}, 5, rs, rng);
  const std::vector<fec::GfElem> sent(burst.codewords[0].begin(),
                                      burst.codewords[0].begin() + rs.k());
  ch.Transmit(std::move(burst));
  ASSERT_EQ(resolve({800, 900}, clean), SlotOutcome::kDecoded);
  EXPECT_EQ(r.sender, 5);
  EXPECT_EQ(r.info[0], sent);
  EXPECT_EQ(ch.pending_bursts(), 0u);
}

TEST(ReverseChannelTest, PerSenderModels) {
  ReverseChannel ch;
  Rng rng(11);
  const auto& rs = fec::ReedSolomon::Osu6448();
  PerfectChannel good;
  UniformErrorModel bad(0.9, 11);
  ch.Transmit(MakeBurst({0, 100}, 0, rs, rng));
  ch.Transmit(MakeBurst({200, 300}, 1, rs, rng));
  auto model_for = [&](int sender) -> SymbolErrorModel& {
    return sender == 0 ? static_cast<SymbolErrorModel&>(good)
                       : static_cast<SymbolErrorModel&>(bad);
  };
  EXPECT_EQ(Resolve(ch, {0, 100}, rs, model_for).outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(Resolve(ch, {200, 300}, rs, model_for).outcome, SlotOutcome::kDecodeFailure);
}

}  // namespace
}  // namespace osumac::phy
