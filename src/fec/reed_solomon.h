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
// Hot-path design: one LFSR remainder kernel, (d(x) * x^{n-k}) mod g(x),
// serves the encoder and the decoder.  Its register is ceil((n-k)/8)
// 64-bit words, and four 256-row word tables of the generator polynomial
// advance it four data symbols per step with four independent row XORs.
// A received word is a codeword iff re-encoding its k data symbols
// reproduces its n-k parity symbols, so the clean check -- the
// overwhelmingly common reception at the paper's error rates -- is a
// re-encode and never touches the syndromes.  On a corrupt word the
// difference of the two parities is r(x) mod g(x), and the n-k syndromes
// come from its n-k bytes by two nibble-table row XORs per byte.
// Berlekamp-Massey works in the log domain; the Chien search steps each
// term's log by one add per position and stops at the deg(Lambda)-th root;
// the post-correction check updates the syndromes by each correction
// instead of recomputing them.  Everything runs on fixed stack buffers
// (n <= 255), and the *Into entry points reuse a caller-provided
// DecodeResult so a simulation slot costs zero heap allocations.
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
  /// Largest LFSR register, in 64-bit words (n - k <= 254 parity bytes).
  static constexpr int kMaxWords = (kMaxN - 1 + 7) / 8;

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

  /// True if `word` is a valid codeword (re-encoding its data reproduces
  /// its parity).
  bool IsCodeword(std::span<const GfElem> word) const;

 private:
  /// (data(x) * x^{n-k}) mod g(x) of the k symbols at `data` into
  /// words_ register words; byte j is the coefficient of x^{n-k-1-j}.
  void Remainder(const GfElem* data, std::uint64_t* out) const;

  /// Writes the n-k bytes of r(x) mod g(x) for the n-symbol `word` into
  /// `rem` and returns true, or returns false (leaving `rem` unwritten)
  /// when the remainder is zero, i.e. `word` is a codeword.
  bool RemainderOfWord(std::span<const GfElem> word, GfElem* rem) const;

  int n_;
  int k_;
  int fcr_;
  /// Register words, ceil((n-k)/8).
  int words_;
  /// Four slices of 256 rows of words_ words: remainder_table_[(s * 256 +
  /// f) * words_ + w] is word w of (f * x^{n-k+3-s}) mod g(x).  Slice 3 is
  /// the register update of one feedback symbol f.
  std::vector<std::uint64_t> remainder_table_;
  /// syndrome_table_[((j * 32) + row) * words_ + w]: word w of the n-k
  /// syndromes of remainder byte j holding nibble value row (rows 16..31:
  /// the high nibble), byte m being syndrome m.
  std::vector<std::uint64_t> syndrome_table_;
};

}  // namespace osumac::fec
