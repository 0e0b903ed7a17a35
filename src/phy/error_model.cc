#include "phy/error_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace osumac::phy {

namespace {
/// A gap no run ever reaches (2^62 symbols); small enough that adding a
/// codeword length to it cannot overflow.
constexpr std::uint64_t kNever = std::uint64_t{1} << 62;

/// Replaces one byte with a uniformly random *different* value (modulo
/// bias across 2^64 draws is ~2^-56 — far below anything the sweeps can
/// resolve).
void FlipByte(fec::GfElem& b, SplitMix64Rng& stream) {
  const auto delta = static_cast<fec::GfElem>(1 + stream.Next() % 255);
  b = static_cast<fec::GfElem>(b ^ delta);
}

/// 1 / log(1 - p), the inversion constant of GeometricGap (unused at the
/// degenerate p = 0 and p = 1, which draw nothing).
double InvLogQ(double p) { return p > 0.0 && p < 1.0 ? 1.0 / std::log1p(-p) : 0.0; }

/// Geometric "failures before first success" at probability p, via
/// inversion: floor(log(U) * inv_log_q) with U uniform on (0, 1) and
/// inv_log_q = InvLogQ(p).
std::uint64_t GeometricGap(SplitMix64Rng& stream, double p, double inv_log_q) {
  if (p <= 0.0) return kNever;
  if (p >= 1.0) return 0;
  const double g = std::floor(std::log(stream.NextOpenDouble()) * inv_log_q);
  return g >= static_cast<double>(kNever) ? kNever : static_cast<std::uint64_t>(g);
}

bool IsProbability(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

UniformErrorModel::UniformErrorModel(double symbol_error_prob, std::uint64_t seed)
    : p_(symbol_error_prob),
      inv_log_q_(InvLogQ(p_)),
      stream_(seed),
      skip_(GeometricGap(stream_, p_, inv_log_q_)) {
  OSUMAC_CHECK(IsProbability(p_));
}

int UniformErrorModel::Corrupt(std::span<fec::GfElem> codeword) {
  int hits = 0;
  std::uint64_t i = skip_;
  while (i < codeword.size()) {
    FlipByte(codeword[i], stream_);
    ++hits;
    i += 1 + GeometricGap(stream_, p_, inv_log_q_);
  }
  skip_ = i - codeword.size();
  return hits;
}

GilbertElliottModel::GilbertElliottModel(const Params& params, std::uint64_t seed)
    : params_(params),
      inv_log_stay_good_(InvLogQ(params.p_good_to_bad)),
      inv_log_clean_good_(InvLogQ(params.error_prob_good)),
      stream_(seed),
      good_to_fade_(GeometricGap(stream_, params.p_good_to_bad, inv_log_stay_good_)),
      good_to_error_(GeometricGap(stream_, params.error_prob_good, inv_log_clean_good_)) {
  OSUMAC_CHECK(IsProbability(params_.p_good_to_bad));
  OSUMAC_CHECK(IsProbability(params_.p_bad_to_good));
  OSUMAC_CHECK(IsProbability(params_.error_prob_good));
  OSUMAC_CHECK(IsProbability(params_.error_prob_bad));
}

int GilbertElliottModel::Corrupt(std::span<fec::GfElem> codeword) {
  return CorruptWithSideInfo(codeword, nullptr);
}

int GilbertElliottModel::CorruptWithSideInfo(std::span<fec::GfElem> codeword,
                                             std::vector<int>* erasures) {
  int hits = 0;
  std::uint64_t i = 0;
  const std::uint64_t n = codeword.size();
  while (i < n) {
    if (!bad_) {
      // Skip ahead to whichever Good-state event lands first.  A fade start
      // at the same symbol as an error wins: a symbol's state is drawn
      // before its error, so that symbol errs at the Bad-state rate.
      const std::uint64_t next = std::min(good_to_fade_, good_to_error_);
      if (next >= n - i) {
        good_to_fade_ -= n - i;
        good_to_error_ -= n - i;
        break;
      }
      good_to_fade_ -= next;
      good_to_error_ -= next;
      i += next;
      if (good_to_fade_ == 0) {
        bad_ = true;  // symbol i is the first faded symbol
        continue;
      }
      FlipByte(codeword[i], stream_);
      ++hits;
      ++i;
      --good_to_fade_;  // the errored symbol was a Good one too
      good_to_error_ =
          GeometricGap(stream_, params_.error_prob_good, inv_log_clean_good_);
    } else {
      // Fade: walk per symbol — every one is erasure-flagged regardless of
      // corruption, so there is no skipping to be had.
      if (erasures != nullptr) erasures->push_back(static_cast<int>(i));
      if (stream_.NextOpenDouble() < params_.error_prob_bad) {
        FlipByte(codeword[i], stream_);
        ++hits;
      }
      ++i;
      if (stream_.NextOpenDouble() < params_.p_bad_to_good) {
        bad_ = false;
        // The recovered symbol is Good for certain; each one after it may
        // start the next fade.
        good_to_fade_ =
            1 + GeometricGap(stream_, params_.p_good_to_bad, inv_log_stay_good_);
        good_to_error_ =
            GeometricGap(stream_, params_.error_prob_good, inv_log_clean_good_);
      }
    }
  }
  return hits;
}

}  // namespace osumac::phy
