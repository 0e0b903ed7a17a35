// Systematic Reed-Solomon codec over GF(256).
//
// The paper encodes every data packet and control field in RS(64,48) over
// GF(256): 48 information bytes, 16 parity bytes, correcting up to t = 8
// symbol errors per codeword.  Field experience reported in Section 2.2 is
// that the decoder either corrects the errors or fails outright, which is
// exactly the behaviour of an algebraic RS decoder: once more than t symbols
// are corrupted, Berlekamp-Massey almost always yields an invalid error
// locator and the decode is flagged as a failure rather than silently wrong.
//
// The decoder pipeline is the classical one:
//   syndromes -> Berlekamp-Massey -> Chien search -> Forney algorithm.
// Erasure-assisted decoding (errors + erasures) is also provided, following
// the burst-erasure motivation of reference [2] (McAuley, SIGCOMM'90).
//
// Hot-path design: at the paper's error rates the overwhelmingly common
// reception is a clean codeword, so Decode*/DecodeWithErasures* check the
// syndromes first and return without ever touching Berlekamp-Massey, Chien
// or Forney when all of them are zero.  The full decode path runs on
// fixed stack buffers (n <= 255) with the doubled GF(256) exp table, the
// encoder on a 256-row product table of the generator polynomial, and the
// *Into entry points reuse a caller-provided DecodeResult so a simulation
// slot costs zero heap allocations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/gf256.h"

namespace osumac::fec {

/// Outcome of a decode attempt.
struct DecodeResult {
  /// Corrected information symbols (k bytes) — only valid when ok.
  std::vector<GfElem> data;
  /// Number of symbol errors corrected (0 if the word was clean).
  int errors_corrected = 0;
  /// Number of erasures filled.
  int erasures_filled = 0;
};

/// Shortened systematic RS(n, k) code over GF(256), n <= 255.
///
/// Codewords are laid out data-first: c = [d_0 .. d_{k-1}, p_0 .. p_{n-k-1}].
class ReedSolomon {
 public:
  /// Largest supported codeword length (GF(256) minus the zero symbol).
  static constexpr int kMaxN = 255;

  /// Builds an RS(n, k) code; requires 0 < k < n <= 255.
  /// `first_consecutive_root` (fcr) selects the generator roots
  /// alpha^fcr .. alpha^{fcr+n-k-1}; 1 is the conventional default.
  ReedSolomon(int n, int k, int first_consecutive_root = 1);

  /// The paper's RS(64,48) code (data packets and control fields).
  static const ReedSolomon& Osu6448();

  /// The paper's RS(32,9) code (GPS report packets).  Shared immutable
  /// instance, like Osu6448(), so multi-cell Networks and parallel sweeps
  /// don't rebuild the generator polynomial per cell.
  static const ReedSolomon& Osu329();

  int n() const { return n_; }
  int k() const { return k_; }
  /// Maximum number of correctable symbol errors, t = (n - k) / 2.
  int t() const { return (n_ - k_) / 2; }

  /// Encodes k information symbols into an n-symbol codeword.
  std::vector<GfElem> Encode(std::span<const GfElem> data) const;

  /// Allocation-free encode into a caller buffer of exactly n symbols.
  void EncodeInto(std::span<const GfElem> data, std::span<GfElem> out) const;

  /// Attempts to decode an n-symbol received word.  Returns nullopt on
  /// decoder failure (uncorrectable word).
  std::optional<DecodeResult> Decode(std::span<const GfElem> received) const;

  /// Decode with known erasure positions (indices into the codeword).
  /// Corrects e errors and f erasures whenever 2e + f <= n - k.  Invalid
  /// side information — more than n-k erasures, a duplicate position, or a
  /// position outside [0, n) — is an honest decode failure (nullopt), never
  /// a silent mis-decode.
  std::optional<DecodeResult> DecodeWithErasures(
      std::span<const GfElem> received, std::span<const int> erasure_positions) const;

  /// Allocation-free decode reusing `out`'s buffers; returns false on
  /// decoder failure (`out` is unspecified then).  Semantics are identical
  /// to Decode()/DecodeWithErasures().
  bool DecodeInto(std::span<const GfElem> received, DecodeResult* out) const;
  bool DecodeWithErasuresInto(std::span<const GfElem> received,
                              std::span<const int> erasure_positions,
                              DecodeResult* out) const;

  /// Reference entry point that always runs the full Berlekamp-Massey /
  /// Chien / Forney pipeline, even when every syndrome is zero.  Exists so
  /// tests can prove the syndrome-first fast path agrees with the full
  /// decoder; simulation code should never call it.  Note: on a clean word
  /// with f > 0 erasure flags the full pipeline "fills" those erasures with
  /// zero-magnitude corrections, so erasures_filled may differ from the
  /// fast path (which reports 0); the decoded data always agrees.
  bool DecodeWithErasuresFullInto(std::span<const GfElem> received,
                                  std::span<const int> erasure_positions,
                                  DecodeResult* out) const;

  /// True if `word` is a valid codeword (all syndromes zero).
  bool IsCodeword(std::span<const GfElem> word) const;

 private:
  /// Writes the n-k syndromes into `s`; returns the OR of them (0 iff the
  /// word is a codeword).  `s` must hold at least n-k entries.
  int ComputeSyndromes(std::span<const GfElem> received, GfElem* s) const;

  bool DecodeImpl(std::span<const GfElem> received,
                  std::span<const int> erasure_positions, DecodeResult* out,
                  bool allow_syndrome_fast_path) const;

  int n_;
  int k_;
  int fcr_;
  /// encode_table_[f * (n-k) + j] = f * g_{n-k-1-j}: 256 rows of the
  /// generator polynomial scaled by each feedback symbol, so the encoder
  /// does one row lookup per data symbol.
  std::vector<GfElem> encode_table_;
  /// syndrome_pow_log_[j * (n-k) + m] = ((fcr+m) * (n-1-j)) mod 255: the
  /// exp-table offset of symbol j's contribution to syndrome m.  Symbol-
  /// major so the syndrome loop does one log lookup per *symbol* and can
  /// skip zero symbols outright.
  std::vector<int> syndrome_pow_log_;
};

}  // namespace osumac::fec
