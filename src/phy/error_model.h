// Symbol-error models for the wireless channels.
//
// The paper's field tests (Section 2.2) show two regimes for RS(64,48):
// either a small number of symbol errors occur and are corrected, or many
// occur and the decoder fails.  These models inject byte(symbol)-level
// corruption into codewords before decoding; the real RS decoder then
// reproduces the corrects-or-fails behaviour.
//
// Each random model draws from its OWN SplitMix64 stream (seeded at
// construction), never from the shared simulation Rng, and skips from one
// error event to the next with geometric inter-arrival sampling: a quiet
// channel costs O(events), not O(symbols).  The symbol-error process is
// exactly the per-symbol one its parameters describe; tests/phy_test.cc
// checks the per-codeword hit histograms against exact oracles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fec/gf256.h"

namespace osumac::phy {

/// Interface: corrupts a coded burst in place; returns the number of byte
/// symbols flipped.  Implementations may be stateful (burst channels keep
/// state across calls).
class SymbolErrorModel {
 public:
  virtual ~SymbolErrorModel() = default;

  /// Corrupts `codeword` in place; each changed byte becomes a random value
  /// different from the original. Returns the number of corrupted bytes.
  virtual int Corrupt(std::span<fec::GfElem> codeword) = 0;

  /// Like Corrupt, but additionally reports *erasure side information*:
  /// symbol positions the receiver can flag as unreliable (e.g. because the
  /// demodulator observed an SNR dip).  An RS decoder can fill n-k erasures
  /// but only correct (n-k)/2 unknown errors, so side information doubles
  /// the correctable burst length — the motivation of the paper's
  /// burst-erasure reference [2] (McAuley, SIGCOMM '90).  The default
  /// implementation reports none.
  virtual int CorruptWithSideInfo(std::span<fec::GfElem> codeword,
                                  std::vector<int>* erasures) {
    (void)erasures;
    return Corrupt(codeword);
  }
};

/// Error-free channel.
class PerfectChannel final : public SymbolErrorModel {
 public:
  int Corrupt(std::span<fec::GfElem>) override { return 0; }
};

/// Independent symbol errors with fixed probability per byte.  Draws one
/// variate per *hit*, not per symbol; the geometric gap runs across
/// codeword boundaries like a true symbol-stream process.
class UniformErrorModel final : public SymbolErrorModel {
 public:
  /// `symbol_error_prob` in [0, 1]: probability that each coded byte is hit.
  UniformErrorModel(double symbol_error_prob, std::uint64_t seed);

  int Corrupt(std::span<fec::GfElem> codeword) override;

 private:
  double p_;
  double inv_log_q_;  ///< 1 / log(1 - p), for inversion sampling
  SplitMix64Rng stream_;
  std::uint64_t skip_;  ///< symbols until the next hit, carried across calls
};

/// Two-state Gilbert-Elliott burst channel: a Good state with low symbol
/// error probability and a Bad (fade) state with high error probability.
/// State transitions are evaluated per coded byte, so fades straddle
/// codeword boundaries, producing the paper's "many errors at once" regime.
/// The Good state (where essentially all airtime is spent) is skip-sampled;
/// the Bad state is walked per symbol, since every faded symbol is
/// erasure-flagged anyway and there is nothing to skip.
class GilbertElliottModel final : public SymbolErrorModel {
 public:
  struct Params {
    double p_good_to_bad = 0.001;  ///< per-symbol transition into a fade
    double p_bad_to_good = 0.05;   ///< per-symbol recovery from a fade
    double error_prob_good = 1e-4;
    double error_prob_bad = 0.4;
  };

  GilbertElliottModel(const Params& params, std::uint64_t seed);

  int Corrupt(std::span<fec::GfElem> codeword) override;

  /// During fades the receiver knows its SNR collapsed: every symbol seen
  /// while in the Bad state is reported as an erasure (whether or not it
  /// was actually corrupted).
  int CorruptWithSideInfo(std::span<fec::GfElem> codeword,
                          std::vector<int>* erasures) override;

  bool in_bad_state() const { return bad_; }

 private:
  Params params_;
  double inv_log_stay_good_;   ///< 1 / log(1 - p_good_to_bad)
  double inv_log_clean_good_;  ///< 1 / log(1 - error_prob_good)
  SplitMix64Rng stream_;
  bool bad_ = false;
  std::uint64_t good_to_fade_;   ///< Good symbols before the fade starts
  std::uint64_t good_to_error_;  ///< Good symbols before the next error
};

}  // namespace osumac::phy
