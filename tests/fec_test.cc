// Unit and property tests for GF(256) arithmetic and the Reed-Solomon codec.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fec/gf256.h"
#include "fec/reed_solomon.h"
#include "fec_reference.h"

namespace osumac::fec {
namespace {

const Gf256& gf() { return Gf256::Instance(); }

TEST(Gf256Test, AdditionIsXor) {
  EXPECT_EQ(gf().Add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf().Add(0, 0xFF), 0xFF);
  EXPECT_EQ(gf().Add(0xAB, 0xAB), 0);
}

TEST(Gf256Test, MultiplicationByZeroAndOne) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf().Mul(static_cast<GfElem>(a), 0), 0);
    EXPECT_EQ(gf().Mul(0, static_cast<GfElem>(a)), 0);
    EXPECT_EQ(gf().Mul(static_cast<GfElem>(a), 1), a);
  }
}

TEST(Gf256Test, MultiplicationCommutesAndAssociates) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GfElem>(rng.UniformInt(0, 255));
    const auto b = static_cast<GfElem>(rng.UniformInt(0, 255));
    const auto c = static_cast<GfElem>(rng.UniformInt(0, 255));
    EXPECT_EQ(gf().Mul(a, b), gf().Mul(b, a));
    EXPECT_EQ(gf().Mul(a, gf().Mul(b, c)), gf().Mul(gf().Mul(a, b), c));
  }
}

TEST(Gf256Test, DistributesOverAddition) {
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GfElem>(rng.UniformInt(0, 255));
    const auto b = static_cast<GfElem>(rng.UniformInt(0, 255));
    const auto c = static_cast<GfElem>(rng.UniformInt(0, 255));
    EXPECT_EQ(gf().Mul(a, gf().Add(b, c)),
              gf().Add(gf().Mul(a, b), gf().Mul(a, c)));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto e = static_cast<GfElem>(a);
    EXPECT_EQ(gf().Mul(e, gf().Inverse(e)), 1) << "a=" << a;
  }
}

TEST(Gf256Test, DivisionInvertsMultiplication) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GfElem>(rng.UniformInt(0, 255));
    const auto b = static_cast<GfElem>(rng.UniformInt(1, 255));
    EXPECT_EQ(gf().Div(gf().Mul(a, b), b), a);
  }
}

TEST(Gf256Test, ExpLogRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const auto e = static_cast<GfElem>(a);
    EXPECT_EQ(gf().Exp(gf().Log(e)), e);
  }
}

TEST(Gf256Test, PrimitiveElementHasFullOrder) {
  // alpha = 2 must generate all 255 non-zero elements.
  std::vector<bool> seen(256, false);
  for (int n = 0; n < 255; ++n) seen[gf().Exp(n)] = true;
  EXPECT_EQ(std::count(seen.begin() + 1, seen.end(), true), 255);
  EXPECT_FALSE(seen[0]);
}

TEST(Gf256Test, PowHandlesNegativeExponents) {
  const GfElem a = 0x57;
  EXPECT_EQ(gf().Mul(gf().Pow(a, 3), gf().Pow(a, -3)), 1);
  EXPECT_EQ(gf().Pow(a, 0), 1);
  EXPECT_EQ(gf().Pow(a, 1), a);
  EXPECT_EQ(gf().Pow(a, 255), 1);  // the multiplicative group has order 255
  EXPECT_EQ(gf().Pow(a, 256), a);
}

TEST(PolyTest, DegreeIgnoresLeadingZeros) {
  EXPECT_EQ(poly::Degree({0, 0, 0}), -1);
  EXPECT_EQ(poly::Degree({5}), 0);
  EXPECT_EQ(poly::Degree({1, 2, 3, 0, 0}), 2);
}

TEST(PolyTest, MulDegreeAndEval) {
  // (x + 1)(x + 2) evaluated at x = 1 and x = 2 must be zero... in GF(2^8)
  // roots are where factors vanish: x == 1 gives (1+1)=0.
  const std::vector<GfElem> p = poly::Mul({1, 1}, {2, 1});
  EXPECT_EQ(poly::Degree(p), 2);
  EXPECT_EQ(poly::Eval(p, 1), 0);
  EXPECT_EQ(poly::Eval(p, 2), 0);
  EXPECT_NE(poly::Eval(p, 3), 0);
}

TEST(PolyTest, ModReturnsRemainderSmallerThanDivisor) {
  Rng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<GfElem> p(16), d(5);
    for (auto& c : p) c = static_cast<GfElem>(rng.UniformInt(0, 255));
    for (auto& c : d) c = static_cast<GfElem>(rng.UniformInt(0, 255));
    d.back() = static_cast<GfElem>(rng.UniformInt(1, 255));  // non-zero lead
    const auto r = poly::Mod(p, d);
    EXPECT_LT(poly::Degree(r), poly::Degree(d));
    // p - r must be divisible by d: check p(x) == r(x) at roots of d is not
    // straightforward; instead verify p = q*d + r by reconstructing q*d = p - r
    // and reducing again to zero remainder.
    const auto diff = poly::Add(p, r);
    const auto r2 = poly::Mod(diff, d);
    EXPECT_EQ(poly::Degree(r2), -1);
  }
}

TEST(PolyTest, DerivativeDropsEvenTerms) {
  // d/dx (a + bx + cx^2 + dx^3) = b + d x^2 in characteristic 2.
  const std::vector<GfElem> p = {10, 20, 30, 40};
  const auto d = poly::Derivative(p);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 20);
  EXPECT_EQ(d[1], 0);
  EXPECT_EQ(d[2], 40);
}

// ---------------------------------------------------------------------------
// Reed-Solomon
// ---------------------------------------------------------------------------

std::vector<GfElem> RandomData(int k, Rng& rng) {
  std::vector<GfElem> data(static_cast<std::size_t>(k));
  for (auto& b : data) b = static_cast<GfElem>(rng.UniformInt(0, 255));
  return data;
}

/// Injects exactly `count` symbol errors at distinct random positions.
std::vector<int> InjectErrors(std::vector<GfElem>& word, int count, Rng& rng) {
  std::vector<int> positions(word.size());
  std::iota(positions.begin(), positions.end(), 0);
  std::shuffle(positions.begin(), positions.end(), rng.engine());
  positions.resize(static_cast<std::size_t>(count));
  for (int pos : positions) {
    word[static_cast<std::size_t>(pos)] ^=
        static_cast<GfElem>(rng.UniformInt(1, 255));
  }
  return positions;
}

TEST(ReedSolomonTest, ParametersOfOsuCode) {
  const auto& rs = ReedSolomon::Osu6448();
  EXPECT_EQ(rs.n(), 64);
  EXPECT_EQ(rs.k(), 48);
  EXPECT_EQ(rs.t(), 8);
}

TEST(ReedSolomonTest, EncodeIsSystematic) {
  Rng rng(11);
  const auto& rs = ReedSolomon::Osu6448();
  const auto data = RandomData(rs.k(), rng);
  const auto cw = rs.Encode(data);
  ASSERT_EQ(static_cast<int>(cw.size()), rs.n());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), cw.begin()));
  EXPECT_TRUE(rs.IsCodeword(cw));
}

TEST(ReedSolomonTest, CleanWordDecodesWithZeroCorrections) {
  Rng rng(12);
  const auto& rs = ReedSolomon::Osu6448();
  const auto data = RandomData(rs.k(), rng);
  const auto cw = rs.Encode(data);
  const auto result = rs.Decode(cw);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
  EXPECT_EQ(result->errors_corrected, 0);
}

class RsErrorCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RsErrorCountTest, CorrectsUpToTErrors) {
  const int errors = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + errors));
  const auto& rs = ReedSolomon::Osu6448();
  for (int trial = 0; trial < 50; ++trial) {
    const auto data = RandomData(rs.k(), rng);
    auto cw = rs.Encode(data);
    InjectErrors(cw, errors, rng);
    const auto result = rs.Decode(cw);
    ASSERT_TRUE(result.has_value()) << "errors=" << errors << " trial=" << trial;
    EXPECT_EQ(result->data, data);
    EXPECT_EQ(result->errors_corrected, errors);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCorrectableCounts, RsErrorCountTest,
                         ::testing::Range(1, 9));  // 1..8 == t

TEST(ReedSolomonTest, NinePlusErrorsNeverDecodeSilentlyWrong) {
  // Beyond t errors the decoder must either fail (overwhelmingly likely,
  // the regime the paper observed in the field) or happen to land on a
  // different valid codeword; it must never return corrupted data that
  // fails the codeword check.  We assert no *mis*-decode to the original.
  Rng rng(13);
  const auto& rs = ReedSolomon::Osu6448();
  int failures = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const auto data = RandomData(rs.k(), rng);
    auto cw = rs.Encode(data);
    const int errors = static_cast<int>(rng.UniformInt(9, 20));
    InjectErrors(cw, errors, rng);
    const auto result = rs.Decode(cw);
    if (!result.has_value()) {
      ++failures;
    } else {
      // If it "decoded", the result must be a consistent codeword; it will
      // essentially never equal the original data.
      EXPECT_EQ(static_cast<int>(result->data.size()), rs.k());
    }
  }
  // The corrects-or-fails regime: nearly all overloaded words must fail.
  EXPECT_GE(failures, trials * 95 / 100);
}

TEST(ReedSolomonTest, ErasuresAloneUpToNMinusK) {
  Rng rng(14);
  const auto& rs = ReedSolomon::Osu6448();
  for (int f = 1; f <= rs.n() - rs.k(); ++f) {
    const auto data = RandomData(rs.k(), rng);
    auto cw = rs.Encode(data);
    const auto positions = InjectErrors(cw, f, rng);
    const auto result = rs.DecodeWithErasures(cw, positions);
    ASSERT_TRUE(result.has_value()) << "erasures=" << f;
    EXPECT_EQ(result->data, data);
    EXPECT_EQ(result->errors_corrected, 0);
    EXPECT_EQ(result->erasures_filled, f);
  }
}

struct ErrErasureCase {
  int errors;
  int erasures;
};

class RsErrorsAndErasuresTest
    : public ::testing::TestWithParam<ErrErasureCase> {};

TEST_P(RsErrorsAndErasuresTest, DecodesWhen2EPlusFWithinBudget) {
  const auto [errors, erasures] = GetParam();
  Rng rng(static_cast<std::uint64_t>(1000 + errors * 31 + erasures));
  const auto& rs = ReedSolomon::Osu6448();
  ASSERT_LE(2 * errors + erasures, rs.n() - rs.k());
  for (int trial = 0; trial < 20; ++trial) {
    const auto data = RandomData(rs.k(), rng);
    auto cw = rs.Encode(data);
    // Erase first (positions known), then add errors elsewhere.
    const auto erased = InjectErrors(cw, erasures, rng);
    std::vector<int> free_positions;
    for (int i = 0; i < rs.n(); ++i) {
      if (std::find(erased.begin(), erased.end(), i) == erased.end()) {
        free_positions.push_back(i);
      }
    }
    std::shuffle(free_positions.begin(), free_positions.end(), rng.engine());
    for (int e = 0; e < errors; ++e) {
      cw[static_cast<std::size_t>(free_positions[static_cast<std::size_t>(e)])] ^=
          static_cast<GfElem>(rng.UniformInt(1, 255));
    }
    const auto result = rs.DecodeWithErasures(cw, erased);
    ASSERT_TRUE(result.has_value())
        << "errors=" << errors << " erasures=" << erasures << " trial=" << trial;
    EXPECT_EQ(result->data, data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetSweep, RsErrorsAndErasuresTest,
    ::testing::Values(ErrErasureCase{1, 1}, ErrErasureCase{1, 14},
                      ErrErasureCase{2, 12}, ErrErasureCase{3, 10},
                      ErrErasureCase{4, 8}, ErrErasureCase{5, 6},
                      ErrErasureCase{6, 4}, ErrErasureCase{7, 2},
                      ErrErasureCase{7, 1}, ErrErasureCase{0, 16}));

TEST(ReedSolomonTest, GpsShortCodeRoundTrip) {
  // The GPS packet inner code: shortened RS(32,9), t = 11 (see DESIGN.md).
  const ReedSolomon rs(32, 9);
  Rng rng(15);
  for (int errors = 0; errors <= rs.t(); ++errors) {
    const auto data = RandomData(rs.k(), rng);
    auto cw = rs.Encode(data);
    InjectErrors(cw, errors, rng);
    const auto result = rs.Decode(cw);
    ASSERT_TRUE(result.has_value()) << "errors=" << errors;
    EXPECT_EQ(result->data, data);
  }
}

TEST(ReedSolomonTest, DifferentFcrStillRoundTrips) {
  const ReedSolomon rs(64, 48, /*first_consecutive_root=*/0);
  Rng rng(16);
  const auto data = RandomData(rs.k(), rng);
  auto cw = rs.Encode(data);
  InjectErrors(cw, 8, rng);
  const auto result = rs.Decode(cw);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
}

TEST(ReedSolomonTest, MinimumDistanceSpotCheck) {
  // Two codewords from data differing in one byte must differ in at least
  // n - k + 1 = 17 positions (Singleton bound met with equality: MDS code).
  Rng rng(17);
  const auto& rs = ReedSolomon::Osu6448();
  const auto data1 = RandomData(rs.k(), rng);
  auto data2 = data1;
  data2[5] ^= 0x3C;
  const auto cw1 = rs.Encode(data1);
  const auto cw2 = rs.Encode(data2);
  int diff = 0;
  for (int i = 0; i < rs.n(); ++i) {
    if (cw1[static_cast<std::size_t>(i)] != cw2[static_cast<std::size_t>(i)]) ++diff;
  }
  EXPECT_GE(diff, rs.n() - rs.k() + 1);
}

/// Textbook systematic encoder: parity(x) = data(x) * x^(n-k) mod g(x),
/// with g(x) = (x - a^1) ... (x - a^(n-k)) and codeword symbol j the
/// coefficient of x^(n-1-j).  The reference the table-driven LFSR must match.
std::vector<GfElem> ReferenceEncode(const ReedSolomon& rs,
                                    const std::vector<GfElem>& data) {
  const int n = rs.n();
  const int nroots = rs.n() - rs.k();
  std::vector<GfElem> g = {1};
  for (int i = 0; i < nroots; ++i) g = poly::Mul(g, {gf().Exp(1 + i), 1});
  std::vector<GfElem> shifted(static_cast<std::size_t>(n), 0);  // low-to-high
  for (int j = 0; j < rs.k(); ++j) {
    shifted[static_cast<std::size_t>(n - 1 - j)] = data[static_cast<std::size_t>(j)];
  }
  const std::vector<GfElem> rem = poly::Mod(shifted, g);
  std::vector<GfElem> cw = data;
  for (int j = 0; j < nroots; ++j) {
    const auto power = static_cast<std::size_t>(nroots - 1 - j);
    cw.push_back(power < rem.size() ? rem[power] : 0);
  }
  return cw;
}

TEST(ReedSolomonTest, EncoderMatchesPolynomialDivisionReference) {
  Rng rng(18);
  // The paper's two codes take the fixed-width register kernels; RS(255,223)
  // (four words) and RS(12,11) (one parity byte) take the generic one.
  const ReedSolomon wide(255, 223);
  const ReedSolomon single(12, 11);
  for (const ReedSolomon* rs :
       {&ReedSolomon::Osu6448(), &ReedSolomon::Osu329(), &wide, &single}) {
    std::vector<std::vector<GfElem>> cases;
    cases.emplace_back(static_cast<std::size_t>(rs->k()), 0);  // all zero
    for (int pos = 0; pos < rs->k(); ++pos) {                  // one nonzero symbol
      std::vector<GfElem> d(static_cast<std::size_t>(rs->k()), 0);
      d[static_cast<std::size_t>(pos)] = static_cast<GfElem>(rng.UniformInt(1, 255));
      cases.push_back(d);
    }
    for (int trial = 0; trial < 200; ++trial) cases.push_back(RandomData(rs->k(), rng));

    std::vector<GfElem> out(static_cast<std::size_t>(rs->n()));
    for (const auto& data : cases) {
      rs->EncodeInto(data, out);
      ASSERT_EQ(out, ReferenceEncode(*rs, data))
          << "RS(" << rs->n() << "," << rs->k() << ")";
      EXPECT_TRUE(rs->IsCodeword(out));
    }
  }
}

/// Hamming distance between two equal-length words.
int Distance(const std::vector<GfElem>& a, const std::vector<GfElem>& b) {
  int d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i] ? 1 : 0;
  return d;
}

TEST(ReedSolomonTest, SuccessfulDecodeIsANearbyCodeword) {
  // RS "corrects or fails": whatever the input, a successful errors-only
  // decode names a codeword (checked by definition, not by the codec)
  // within distance t of the received word.  Inputs are arbitrary words
  // and codewords with t+1 .. n-k errors.  The paper's codes essentially
  // never accept such words, so RS(6,4) (t = 1, where about 2% of random
  // words lie within distance 1 of a codeword) makes the property bite.
  //
  // With odd n-k the bound is t+1 = ceil((n-k)/2): RS(32,9) (n-k = 23,
  // t = 11) accepts a 12-error word whenever Berlekamp-Massey's degree-12
  // locator has all 12 roots among the positions, about 0.4% of 12-error
  // words.  In a 200k-word sample every such decode returned the sent data.
  Rng rng(19);
  const ReedSolomon tiny(6, 4);
  for (const ReedSolomon* rs : {&ReedSolomon::Osu6448(), &ReedSolomon::Osu329(), &tiny}) {
    const int radius = (rs->n() - rs->k() + 1) / 2;
    int accepted = 0;
    auto check = [&](const std::vector<GfElem>& word) {
      const auto result = rs->Decode(word);
      if (!result.has_value()) return;
      ++accepted;
      const auto reencoded = rs->Encode(result->data);
      const auto syndromes = reference::Syndromes(reencoded, rs->n(), rs->k(), 1);
      ASSERT_TRUE(reference::AllZero(syndromes));
      ASSERT_LE(Distance(reencoded, word), radius)
          << "RS(" << rs->n() << "," << rs->k() << ")";
    };
    for (int trial = 0; trial < 2000; ++trial) {
      check(RandomData(rs->n(), rng));
      auto cw = rs->Encode(RandomData(rs->k(), rng));
      InjectErrors(cw, rng.UniformInt(rs->t() + 1, rs->n() - rs->k()), rng);
      check(cw);
    }
    if (rs == &tiny) {
      EXPECT_GT(accepted, 0);
    }
  }
}

}  // namespace
}  // namespace osumac::fec
