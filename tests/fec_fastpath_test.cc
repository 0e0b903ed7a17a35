// The optimized decoder against the frozen textbook decoder in
// fec_reference.h: randomized clean and corrupt codewords, error/erasure
// mixes inside and beyond the code's capability, arbitrary words and
// invalid erasure side information must get the same ok/fail decision,
// the same data and the same errors_corrected / erasures_filled from both,
// on RS(64,48), RS(32,9) and a code with a non-default first consecutive
// root.  The reference shares no syndrome, Chien or Forney code with the
// codec, so a kernel bug cannot hide on both sides.  The second half pins
// the edge-case hardening the hot-path bench sweep exposed: invalid
// erasure side information is an honest nullopt, never a silent
// mis-decode, and a wrong-length word is a contract violation.
#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fec/reed_solomon.h"
#include "fec_reference.h"

namespace osumac::fec {
namespace {

std::vector<GfElem> RandomData(const ReedSolomon& rs, Rng& rng) {
  std::vector<GfElem> data(static_cast<std::size_t>(rs.k()));
  for (auto& b : data) b = static_cast<GfElem>(rng.UniformInt(0, 255));
  return data;
}

/// Picks `count` distinct positions in [0, n).
std::vector<int> DistinctPositions(int count, int n, Rng& rng) {
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(rng.UniformInt(i, n - 1))]);
  }
  all.resize(static_cast<std::size_t>(count));
  return all;
}

/// Requires the codec and the reference to agree on `word`.
void ExpectAgreement(const ReedSolomon& rs, int fcr, const std::vector<GfElem>& word,
                     const std::vector<int>& erasures) {
  DecodeResult fast;
  DecodeResult ref;
  const bool fast_ok = rs.DecodeWithErasuresInto(word, erasures, &fast);
  const bool ref_ok = reference::Decode(word, rs.n(), rs.k(), fcr, erasures, &ref);
  ASSERT_EQ(fast_ok, ref_ok) << "f=" << erasures.size();
  if (!fast_ok) return;
  EXPECT_EQ(fast.data, ref.data);
  EXPECT_EQ(fast.errors_corrected, ref.errors_corrected);
  EXPECT_EQ(fast.erasures_filled, ref.erasures_filled);
}

/// One randomized trial: corrupt `n_errors` positions and flag `n_erasures`
/// of a disjoint set, then require the codec to agree with the reference
/// and, within capacity, to recover the data.  Positions flagged as
/// erasures are zeroed (the channel's side-information contract: an erased
/// symbol's value carries no info).
void CheckAgreement(const ReedSolomon& rs, int n_errors, int n_erasures, Rng& rng,
                    int fcr = 1) {
  const auto data = RandomData(rs, rng);
  auto word = rs.Encode(data);
  const auto positions = DistinctPositions(n_errors + n_erasures, rs.n(), rng);
  std::vector<int> erasures(positions.begin(),
                            positions.begin() + n_erasures);
  for (int i = 0; i < n_errors; ++i) {
    auto& sym = word[static_cast<std::size_t>(positions[
        static_cast<std::size_t>(n_erasures + i)])];
    sym = static_cast<GfElem>(sym ^ rng.UniformInt(1, 255));
  }
  for (int pos : erasures) word[static_cast<std::size_t>(pos)] = 0;

  ExpectAgreement(rs, fcr, word, erasures);
  if (2 * n_errors + n_erasures <= rs.n() - rs.k()) {
    const auto decoded = rs.DecodeWithErasures(word, erasures);
    ASSERT_TRUE(decoded.has_value()) << "e=" << n_errors << " f=" << n_erasures;
    EXPECT_EQ(decoded->data, data) << "e=" << n_errors << " f=" << n_erasures;
  }
}

TEST(FecFastPathTest, CleanWordsTakeFastPathAndAgree) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    CheckAgreement(rs, /*n_errors=*/0, /*n_erasures=*/0, rng);
  }
}

TEST(FecFastPathTest, CleanWordsWithErasureFlagsAgreeOnData) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(102);
  for (int trial = 0; trial < 200; ++trial) {
    // Flagging an already-zero symbol keeps the word clean only when the
    // encoded symbol there happens to be 0; zeroing it generally corrupts.
    // Either way the two decoders must agree bit-for-bit on the data.
    CheckAgreement(rs, 0, rng.UniformInt(1, rs.n() - rs.k() - 1), rng);
  }
}

TEST(FecFastPathTest, RandomErrorErasureMixesAgree) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(103);
  for (int trial = 0; trial < 400; ++trial) {
    // Spans correctable and uncorrectable mixes: 2e + f up to beyond n-k.
    const int e = rng.UniformInt(0, rs.t() + 2);
    const int f = rng.UniformInt(0, rs.n() - rs.k() - 1);
    CheckAgreement(rs, e, f, rng);
  }
}

TEST(FecFastPathTest, ShortCodeMixesAgree) {
  const auto& rs = ReedSolomon::Osu329();
  Rng rng(104);
  for (int trial = 0; trial < 400; ++trial) {
    // The short code is mostly parity (n-k = 23 of n = 32), so cap e + f at
    // n distinct positions.
    const int f = rng.UniformInt(0, rs.n() - rs.k() - 1);
    const int e = rng.UniformInt(0, std::min(rs.t() + 2, rs.n() - f));
    CheckAgreement(rs, e, f, rng);
  }
}

TEST(FecFastPathTest, NonDefaultFcrMixesAgree) {
  for (const int fcr : {0, 120}) {
    const ReedSolomon rs(64, 48, fcr);
    Rng rng(109 + static_cast<std::uint64_t>(fcr));
    for (int trial = 0; trial < 300; ++trial) {
      const int e = rng.UniformInt(0, rs.t() + 2);
      const int f = rng.UniformInt(0, rs.n() - rs.k() - 1);
      CheckAgreement(rs, e, f, rng, fcr);
    }
  }
}

TEST(FecFastPathTest, GenericRegisterWidthMixesAgree) {
  // Codes outside the paper's two take the runtime-width LFSR kernel.
  for (const auto& [n, k] : {std::pair{255, 205}, std::pair{20, 12}}) {
    const ReedSolomon rs(n, k);
    Rng rng(112 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 100; ++trial) {
      const int f = rng.UniformInt(0, rs.n() - rs.k() - 1);
      const int e = rng.UniformInt(0, std::min(rs.t() + 2, rs.n() - f));
      CheckAgreement(rs, e, f, rng);
    }
  }
}

TEST(FecFastPathTest, TinyCodeMixesAgree) {
  // The post-correction syndrome check rejects only about 1 in 3300 of
  // RS(64,48)'s random error/erasure mixes, but 1 in 600 of RS(6,4)'s and
  // 1 in 1400 of RS(10,4)'s; thousands of trials there reach it.
  for (const auto& [n, k] : {std::pair{6, 4}, std::pair{10, 4}}) {
    const ReedSolomon rs(n, k);
    Rng rng(120 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 10000; ++trial) {
      const int f = rng.UniformInt(0, rs.n() - rs.k() - 1);
      const int e = rng.UniformInt(0, std::min(rs.t() + 3, rs.n() - f));
      CheckAgreement(rs, e, f, rng);
    }
  }
}

TEST(FecFastPathTest, ArbitraryWordsAgree) {
  Rng rng(110);
  for (const ReedSolomon* rs : {&ReedSolomon::Osu6448(), &ReedSolomon::Osu329()}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<GfElem> word(static_cast<std::size_t>(rs->n()));
      for (auto& b : word) b = static_cast<GfElem>(rng.UniformInt(0, 255));
      const int f = rng.UniformInt(0, rs->n() - rs->k() - 1);
      ExpectAgreement(*rs, 1, word, DistinctPositions(f, rs->n(), rng));
    }
  }
}

TEST(FecFastPathTest, InvalidSideInformationAgrees) {
  // Erasure lists up to the channel's n-k-1 cap with a duplicate or an
  // out-of-range position planted in them, and lists past n-k.
  Rng rng(111);
  for (const ReedSolomon* rs : {&ReedSolomon::Osu6448(), &ReedSolomon::Osu329()}) {
    const int nroots = rs->n() - rs->k();
    for (int trial = 0; trial < 200; ++trial) {
      auto word = rs->Encode(RandomData(*rs, rng));
      word[static_cast<std::size_t>(rng.UniformInt(0, rs->n() - 1))] ^= 0x5a;
      const int f = rng.UniformInt(1, nroots - 1);
      auto erasures = DistinctPositions(f, rs->n(), rng);
      switch (trial % 4) {
        case 0: erasures.push_back(erasures.front()); break;
        case 1: erasures.back() = rs->n() + rng.UniformInt(0, 1000); break;
        case 2: erasures.back() = -1 - rng.UniformInt(0, 1000); break;
        default: erasures = DistinctPositions(nroots + 1, rs->n(), rng); break;
      }
      ExpectAgreement(*rs, 1, word, erasures);
      DecodeResult out;
      EXPECT_FALSE(rs->DecodeWithErasuresInto(word, erasures, &out));
    }
  }
}

TEST(FecFastPathTest, FastPathReportsZeroWork) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(105);
  const auto data = RandomData(rs, rng);
  const auto word = rs.Encode(data);
  const auto result = rs.Decode(word);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
  EXPECT_EQ(result->errors_corrected, 0);
  EXPECT_EQ(result->erasures_filled, 0);
}

// ---- Edge-case hardening: invalid side information is an honest failure.

TEST(FecFastPathTest, TooManyErasuresIsDecodeFailure) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(106);
  const auto word = rs.Encode(RandomData(rs, rng));
  const int nroots = rs.n() - rs.k();
  auto erasures = DistinctPositions(nroots + 1, rs.n(), rng);
  EXPECT_EQ(rs.DecodeWithErasures(word, erasures), std::nullopt);
  // Exactly n-k erasures is still within the code's capability.
  erasures.resize(static_cast<std::size_t>(nroots));
  std::vector<GfElem> erased = word;
  for (int pos : erasures) erased[static_cast<std::size_t>(pos)] = 0;
  const auto ok = rs.DecodeWithErasures(erased, erasures);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(std::equal(ok->data.begin(), ok->data.end(), word.begin()));
}

TEST(FecFastPathTest, DuplicateErasurePositionIsDecodeFailure) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(107);
  const auto word = rs.Encode(RandomData(rs, rng));
  const std::vector<int> dup = {5, 9, 5};
  EXPECT_EQ(rs.DecodeWithErasures(word, dup), std::nullopt);
  DecodeResult out;
  EXPECT_FALSE(rs.DecodeWithErasuresInto(word, dup, &out));
  EXPECT_FALSE(reference::Decode(word, rs.n(), rs.k(), 1, dup, &out));
}

TEST(FecFastPathTest, OutOfRangeErasurePositionIsDecodeFailure) {
  const auto& rs = ReedSolomon::Osu6448();
  Rng rng(108);
  const auto word = rs.Encode(RandomData(rs, rng));
  EXPECT_EQ(rs.DecodeWithErasures(word, std::vector<int>{-1}), std::nullopt);
  EXPECT_EQ(rs.DecodeWithErasures(word, std::vector<int>{rs.n()}),
            std::nullopt);
  EXPECT_EQ(rs.DecodeWithErasures(word, std::vector<int>{1000000}),
            std::nullopt);
}

TEST(FecFastPathDeathTest, WrongLengthWordIsContractViolation) {
  const auto& rs = ReedSolomon::Osu6448();
  const std::vector<GfElem> empty;
  const std::vector<GfElem> short_word(static_cast<std::size_t>(rs.n() - 1));
  EXPECT_DEATH((void)rs.Decode(empty), "received.size");
  EXPECT_DEATH((void)rs.Decode(short_word), "received.size");
  DecodeResult out;
  EXPECT_DEATH((void)rs.DecodeWithErasuresInto(empty, {}, &out),
               "received.size");
}

}  // namespace
}  // namespace osumac::fec
