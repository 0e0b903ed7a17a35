#include "fec/reed_solomon.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <type_traits>

#include "common/check.h"
#include "obs/profiler.h"

namespace osumac::fec {

// The register's byte j is bits 8(j mod 8).. of word j/8, so parity bytes
// move between a codeword and the register with one memcpy.
static_assert(std::endian::native == std::endian::little,
              "the LFSR register packs parity bytes little-endian");

namespace {

const Gf256& gf() { return Gf256::Instance(); }

/// Log/antilog tables with a zero sentinel: log[0] = kLogZero, exp[i] is
/// alpha^(i mod 255) below kLogZero and 0 from there on.  So the product of
/// two field elements that may be zero is exp[log[a] + log[b]] with no
/// branch, and sums of up to kLogZero / 255 = 16 reduced logs need no
/// reduction.
struct LogDomain {
  static constexpr int kLogZero = 16 * 255;
  std::array<std::uint16_t, 256> log{};
  std::array<GfElem, 2 * kLogZero + 1> exp{};

  LogDomain() {
    log[0] = kLogZero;
    for (int a = 1; a < 256; ++a) {
      log[static_cast<std::size_t>(a)] =
          static_cast<std::uint16_t>(gf().Log(static_cast<GfElem>(a)));
    }
    for (int i = 0; i < kLogZero; ++i) exp[static_cast<std::size_t>(i)] = gf().Exp(i);
  }
};

const LogDomain& Ld() {
  static const LogDomain tables;
  return tables;
}

/// e mod 255 in [0, 255) for any int e.
int Mod255(long e) {
  e %= 255;
  return static_cast<int>(e < 0 ? e + 255 : e);
}

/// (a + b) mod 255 for a, b in [0, 255), without a branch: the sums wrap
/// at data-dependent steps, which a predicted branch keeps missing.
int Add255(int a, int b) {
  const int sum = a + b;
  return sum - (sum >= 255 ? 255 : 0);
}

/// (data(x) * x^{n-k}) mod g(x) for k data symbols.  One LFSR step
/// shifts the register one byte toward byte 0 and XORs in the row of its
/// feedback symbol; `table` holds four 256-row slices, slice 3 being that
/// single-step row.  The remainder is linear, so four steps fold into one:
/// XOR four data symbols onto the register's top four bytes, shift it four
/// bytes, and XOR in slice s's row of top byte s -- the register update
/// of feeding that byte through the 3 - s steps after it.  The four
/// lookups are independent, which is what makes this faster than four
/// single steps.  W > 0 fixes the word count at compile time so the
/// register lives in machine registers; W == 0 takes it from `words`.
template <int W>
void LfsrRemainder(const std::uint64_t* table, int words, int nroots, const GfElem* data,
                   int k, std::uint64_t* out) {
  constexpr int kCap = W > 0 ? W : ReedSolomon::kMaxWords;
  const int nw = W > 0 ? W : words;
  const std::size_t slice = 256 * static_cast<std::size_t>(nw);
  auto row = [&](int s, std::uint64_t byte) {
    return table + static_cast<std::size_t>(s) * slice +
           (byte & 0xff) * static_cast<std::size_t>(nw);
  };
  std::uint64_t reg[kCap] = {};
  int i = 0;
  if (nroots >= 4) {
    for (; i + 4 <= k; i += 4) {
      std::uint32_t in;
      std::memcpy(&in, data + i, sizeof in);
      const std::uint64_t top = (reg[0] ^ in) & 0xffffffffu;
      for (int w = 0; w + 1 < nw; ++w) reg[w] = (reg[w] >> 32) | (reg[w + 1] << 32);
      reg[nw - 1] >>= 32;
      const std::uint64_t* r0 = row(0, top);
      const std::uint64_t* r1 = row(1, top >> 8);
      const std::uint64_t* r2 = row(2, top >> 16);
      const std::uint64_t* r3 = row(3, top >> 24);
      for (int w = 0; w < nw; ++w) reg[w] ^= r0[w] ^ r1[w] ^ r2[w] ^ r3[w];
    }
  }
  for (; i < k; ++i) {
    const std::uint64_t* r = row(3, data[i] ^ reg[0]);
    for (int w = 0; w + 1 < nw; ++w) reg[w] = ((reg[w] >> 8) | (reg[w + 1] << 56)) ^ r[w];
    reg[nw - 1] = (reg[nw - 1] >> 8) ^ r[nw - 1];
  }
  std::memcpy(out, reg, static_cast<std::size_t>(nw) * sizeof(std::uint64_t));
}

/// Syndromes of a remainder: for each remainder byte, XOR in the rows of
/// its low and high nibble, each row holding that nibble's weight in every
/// syndrome (byte m of the accumulator is syndrome m).  W as above.
template <int W>
void NibbleSyndromes(const std::uint64_t* table, int words, const GfElem* rem, int nroots,
                     std::uint64_t* out) {
  constexpr int kCap = W > 0 ? W : ReedSolomon::kMaxWords;
  const int nw = W > 0 ? W : words;
  std::uint64_t acc[kCap] = {};
  for (int j = 0; j < nroots; ++j) {
    const std::size_t base = static_cast<std::size_t>(j) * 32;
    const auto width = static_cast<std::size_t>(nw);
    const std::uint64_t* lo = table + (base + (rem[j] & 15)) * width;
    const std::uint64_t* hi = table + (base + 16 + (rem[j] >> 4)) * width;
    for (int w = 0; w < nw; ++w) acc[w] ^= lo[w] ^ hi[w];
  }
  std::memcpy(out, acc, static_cast<std::size_t>(nw) * sizeof(std::uint64_t));
}

/// Calls fn(std::integral_constant<int, W>{}) with W = `words` for the
/// paper's register widths (2 words: RS(64,48); 3: RS(32,9)), else W = 0.
template <typename Fn>
void WithWordCount(int words, Fn&& fn) {
  switch (words) {
    case 2: return fn(std::integral_constant<int, 2>{});
    case 3: return fn(std::integral_constant<int, 3>{});
    default: return fn(std::integral_constant<int, 0>{});
  }
}

}  // namespace

ReedSolomon::ReedSolomon(int n, int k, int first_consecutive_root)
    : n_(n), k_(k), fcr_(first_consecutive_root), words_((n - k + 7) / 8) {
  OSUMAC_CHECK(0 < k && k < n && n <= kMaxN);
  // g(x) = (x - a^fcr)(x - a^{fcr+1}) ... (x - a^{fcr+n-k-1})
  std::vector<GfElem> generator = {1};  // lint: allow-hot-alloc (constructor-time setup)
  for (int i = 0; i < n_ - k_; ++i) {
    generator = poly::Mul(generator, {gf().Exp(fcr_ + i), 1});
  }
  const int nroots = n_ - k_;
  // Slice 3, row f: f * g(x)'s coefficients highest-first (g monic, so its
  // leading 1 is dropped), byte j in word j/8 -- the register update of one
  // feedback symbol.  Slice s, row f: the register after feeding f and then
  // 3 - s zero symbols into a zero register.
  const auto width = static_cast<std::size_t>(words_);
  const std::size_t slice = 256 * width;
  remainder_table_.assign(4 * slice, 0);
  std::uint64_t* single = &remainder_table_[3 * slice];
  for (int f = 0; f < 256; ++f) {
    for (int j = 0; j < nroots; ++j) {
      const GfElem g = generator[static_cast<std::size_t>(nroots - 1 - j)];
      const GfElem product = gf().Mul(static_cast<GfElem>(f), g);
      single[static_cast<std::size_t>(f * words_ + j / 8)] |=
          static_cast<std::uint64_t>(product) << (8 * (j % 8));
    }
  }
  for (int s = 2; s >= 0; --s) {
    for (int f = 0; f < 256; ++f) {
      // One more zero-symbol step on slice s+1's row: shift, then feed back
      // the byte shifted out.
      const auto at =
          static_cast<std::size_t>(s) * slice + static_cast<std::size_t>(f) * width;
      const std::uint64_t* prev = &remainder_table_[at + slice];
      const std::uint64_t* fb = single + (prev[0] & 0xff) * width;
      std::uint64_t* out = &remainder_table_[at];
      for (int w = 0; w < words_; ++w) {
        const std::uint64_t next = w + 1 < words_ ? prev[w + 1] << 56 : 0;
        out[w] = ((prev[w] >> 8) | next) ^ fb[w];
      }
    }
  }
  // Row (j, half, v) of the syndrome table: the nibble value v (shifted up
  // when half is 1) at remainder byte j, times alpha^{(fcr+m)(n-k-1-j)}
  // as byte m.
  syndrome_table_.assign(static_cast<std::size_t>(nroots) * 32 * width, 0);
  for (int j = 0; j < nroots; ++j) {
    for (int row = 0; row < 32; ++row) {
      const auto value = static_cast<GfElem>(row < 16 ? row : (row - 16) << 4);
      std::uint64_t* out =
          &syndrome_table_[static_cast<std::size_t>((j * 32 + row) * words_)];
      for (int m = 0; m < nroots; ++m) {
        const GfElem weight = gf().Mul(value, gf().Exp((fcr_ + m) * (nroots - 1 - j)));
        out[m / 8] |= static_cast<std::uint64_t>(weight) << (8 * (m % 8));
      }
    }
  }
}

const ReedSolomon& ReedSolomon::Osu6448() {
  static const ReedSolomon code(64, 48);
  return code;
}

const ReedSolomon& ReedSolomon::Osu329() {
  static const ReedSolomon code(32, 9);
  return code;
}

void ReedSolomon::Remainder(const GfElem* data, std::uint64_t* out) const {
  WithWordCount(words_, [&](auto w) {
    LfsrRemainder<decltype(w)::value>(remainder_table_.data(), words_, n_ - k_, data, k_,
                                      out);
  });
}

bool ReedSolomon::RemainderOfWord(std::span<const GfElem> word, GfElem* rem) const {
  std::uint64_t reg[kMaxWords];
  std::uint64_t parity[kMaxWords];
  Remainder(word.data(), reg);
  parity[words_ - 1] = 0;
  std::memcpy(parity, word.data() + k_, static_cast<std::size_t>(n_ - k_));
  std::uint64_t any = 0;
  for (int w = 0; w < words_; ++w) {
    reg[w] ^= parity[w];
    any |= reg[w];
  }
  if (any == 0) return false;
  std::memcpy(rem, reg, static_cast<std::size_t>(n_ - k_));
  return true;
}

void ReedSolomon::EncodeInto(std::span<const GfElem> data, std::span<GfElem> out) const {
  OSUMAC_PROFILE_ZONE("fec.encode");
  OSUMAC_CHECK_EQ(static_cast<int>(data.size()), k_);
  OSUMAC_CHECK_EQ(static_cast<int>(out.size()), n_);
  std::uint64_t parity[kMaxWords];
  Remainder(data.data(), parity);
  std::copy(data.begin(), data.end(), out.begin());
  std::memcpy(out.data() + k_, parity, static_cast<std::size_t>(n_ - k_));
}

std::vector<GfElem> ReedSolomon::Encode(std::span<const GfElem> data) const {
  std::vector<GfElem> codeword(static_cast<std::size_t>(n_));  // lint: allow-hot-alloc (allocating wrapper; hot paths use EncodeInto)
  EncodeInto(data, codeword);
  return codeword;
}

bool ReedSolomon::IsCodeword(std::span<const GfElem> word) const {
  OSUMAC_CHECK_EQ(static_cast<int>(word.size()), n_);
  GfElem rem[kMaxN];
  return !RemainderOfWord(word, rem);
}

std::optional<DecodeResult> ReedSolomon::Decode(std::span<const GfElem> received) const {
  return DecodeWithErasures(received, {});
}

std::optional<DecodeResult> ReedSolomon::DecodeWithErasures(
    std::span<const GfElem> received, std::span<const int> erasure_positions) const {
  DecodeResult result;  // lint: allow-hot-alloc (allocating wrapper; hot paths use DecodeWithErasuresInto)
  if (!DecodeWithErasuresInto(received, erasure_positions, &result)) return std::nullopt;
  return result;
}

bool ReedSolomon::DecodeInto(std::span<const GfElem> received, DecodeResult* out) const {
  return DecodeWithErasuresInto(received, {}, out);
}

bool ReedSolomon::DecodeWithErasuresInto(std::span<const GfElem> received,
                                         std::span<const int> erasure_positions,
                                         DecodeResult* out) const {
  OSUMAC_PROFILE_ZONE("fec.decode");
  OSUMAC_CHECK_EQ(static_cast<int>(received.size()), n_);
  OSUMAC_CHECK(out != nullptr);
  const int nroots = n_ - k_;
  const int f = static_cast<int>(erasure_positions.size());
  if (f > nroots) return false;

  // Erasure side information comes from the demodulator and may be garbage
  // under a deep fade; a duplicate or out-of-range position must degrade
  // into an honest decode failure, never a silent mis-decode.
  bool is_erasure[kMaxN] = {};
  for (const int pos : erasure_positions) {
    if (pos < 0 || pos >= n_ || is_erasure[pos]) return false;
    is_erasure[pos] = true;
  }

  // Clean check: re-encoding the data symbols reproduces the parity iff the
  // word is a codeword.  Clean reception is the overwhelmingly common case
  // at the paper's error rates, and erasure flags on a word that already
  // checks out carry no information to act on.
  GfElem rem[kMaxN];
  if (!RemainderOfWord(received, rem)) {
    out->data.assign(received.begin(), received.begin() + k_);
    out->errors_corrected = 0;
    out->erasures_filled = 0;
    return true;
  }

  const GfElem* exp = Ld().exp.data();
  const std::uint16_t* log = Ld().log.data();

  // rem(x) = r(x) mod g(x), and g vanishes on every root, so syndrome m is
  // rem(alpha^{fcr+m}) = sum_j rem_j alpha^{(fcr+m)(n-k-1-j)}: the (n-k)^2
  // products, n-k syndromes at a time.
  std::uint64_t syndrome_words[kMaxWords];
  WithWordCount(words_, [&](auto w) {
    NibbleSyndromes<decltype(w)::value>(syndrome_table_.data(), words_, rem, nroots,
                                        syndrome_words);
  });
  GfElem s[kMaxN];
  std::memcpy(s, syndrome_words, static_cast<std::size_t>(nroots));

  // All polynomial buffers live on the stack: degree never exceeds nroots,
  // and b(x) grows by at most one coefficient per Berlekamp-Massey round.
  constexpr int kPolyCap = kMaxN + 2;
  GfElem lambda[kPolyCap];
  int b_buf[kPolyCap];  // logs of b(x)'s coefficients
  int spare_buf[kPolyCap];

  // Erasure locator Gamma(x) = prod (1 + X_j x), X_j = alpha^{n-1-pos}.
  lambda[0] = 1;
  int lambda_len = 1;
  for (const int pos : erasure_positions) {
    // lambda <- lambda * (1 + X x): new coefficient i is l_i + X * l_{i-1}.
    const int xlog = n_ - 1 - pos;
    lambda[lambda_len] = 0;
    for (int i = lambda_len; i >= 1; --i) {
      lambda[i] ^= exp[log[lambda[i - 1]] + xlog];
    }
    ++lambda_len;
  }

  // Berlekamp-Massey, initialized with the erasure locator
  // (errors-and-erasures variant; see Blahut, "Theory and Practice of
  // Error Control Codes", the paper's reference [1]).  b(x) is held as
  // x^{b_shift} times the coefficients whose logs are b_log[], so its
  // x * b(x) steps bump a count instead of moving bytes.
  int s_log[kMaxN];
  for (int m = 0; m < nroots; ++m) s_log[m] = log[s[m]];
  int* b_log = b_buf;
  int* spare = spare_buf;
  for (int i = 0; i < lambda_len; ++i) b_log[i] = log[lambda[i]];
  int b_len = lambda_len;
  int b_shift = 0;
  int el = f;
  for (int r = f + 1; r <= nroots; ++r) {
    GfElem discrepancy = 0;
    const int terms = std::min(lambda_len, r);
    for (int i = 0; i < terms; ++i) {
      discrepancy ^= exp[log[lambda[i]] + s_log[r - i - 1]];
    }
    if (discrepancy == 0) {
      ++b_shift;
      continue;
    }
    const int dlog = log[discrepancy];
    const bool lengthen = 2 * el <= r + f - 1;
    if (lengthen) {
      // The next b(x) is the current lambda(x) / discrepancy.
      el = r + f - el;
      const int inv_log = 255 - dlog;
      for (int i = 0; i < lambda_len; ++i) spare[i] = log[lambda[i]] + inv_log;
    }
    // lambda(x) += discrepancy * x * b(x)
    const int old_len = lambda_len;
    const int offset = b_shift + 1;
    lambda_len = std::max(lambda_len, b_len + offset);
    OSUMAC_DCHECK(lambda_len <= kPolyCap);
    std::fill(lambda + old_len, lambda + lambda_len, GfElem{0});
    for (int i = 0; i < b_len; ++i) lambda[i + offset] ^= exp[b_log[i] + dlog];
    if (lengthen) {
      std::swap(b_log, spare);
      b_len = old_len;
      b_shift = 0;
    } else {
      ++b_shift;
    }
  }

  int deg_lambda = lambda_len - 1;
  while (deg_lambda > 0 && lambda[deg_lambda] == 0) --deg_lambda;
  if (deg_lambda > nroots) return false;

  // Chien search over the shortened codeword positions.  Term i of
  // Lambda(X_j^{-1}) is lambda_i * alpha^{-i(n-1-j)}, so stepping j by one
  // adds i to its log: one add per term per position.  Each block of
  // positions runs term by term, so a term's log stays in a register.  Odd
  // and even terms are summed apart because the odd sum also gives
  // Lambda'(X^{-1}) = X * odd for Forney.  A degree-d polynomial has at
  // most d roots, so the search stops at the d-th; fewer than d roots
  // among the codeword positions means more than t errors: decode failure.
  struct ChienTerm {
    int power;  // log of the term at the next position
    int step;
    int odd;
  };
  ChienTerm terms[kPolyCap];
  int n_terms = 0;
  for (int i = 1; i <= deg_lambda; ++i) {
    if (lambda[i] == 0) continue;
    const int power = Mod255(log[lambda[i]] - static_cast<long>(i) * (n_ - 1));
    terms[n_terms++] = {power, i, i & 1};
  }
  int error_positions[kMaxN];
  GfElem odd_sums[kMaxN];  // odd-term sum at each root
  int n_errors = 0;
  // A block's logs climb at most 16 * 254 < kLogZero: no reduction inside.
  constexpr int kBlock = 16;
  static_assert(kBlock * 254 < LogDomain::kLogZero);
  for (int j0 = 0; j0 < n_ && n_errors < deg_lambda; j0 += kBlock) {
    const int len = std::min(kBlock, n_ - j0);
    GfElem sums[2][kBlock];  // [0]: even terms with lambda_0, [1]: odd terms
    std::memset(sums[0], lambda[0], kBlock);
    std::memset(sums[1], 0, kBlock);
    for (int q = 0; q < n_terms; ++q) {
      GfElem* acc = sums[terms[q].odd];
      const int step = terms[q].step;
      for (int p = 0, e = terms[q].power; p < len; ++p, e += step) acc[p] ^= exp[e];
      terms[q].power = (terms[q].power + len * step) % 255;
    }
    for (int p = 0; p < len && n_errors < deg_lambda; ++p) {
      if (sums[0][p] == sums[1][p]) {
        error_positions[n_errors] = j0 + p;
        odd_sums[n_errors++] = sums[1][p];
      }
    }
  }
  if (n_errors != deg_lambda) return false;

  // Forney.  Omega(x) = S(x) * Lambda(x) mod x^{n-k}.  Whenever the
  // corrected word will check out, Lambda is exactly the errata locator and
  // Omega has degree < deg Lambda, so only those coefficients are formed;
  // if a higher one were non-zero no error pattern at these positions fits
  // the syndromes, and the recheck below fails for any magnitudes.
  int omega_log[kMaxN];
  for (int m = 0; m < deg_lambda; ++m) {
    GfElem acc = 0;
    for (int i = 0; i <= m; ++i) acc ^= exp[log[lambda[i]] + s_log[m - i]];
    omega_log[m] = log[acc];
  }

  // e = X^{1-fcr} Omega(X^{-1}) / Lambda'(X^{-1}) = X^{-fcr} Omega(X^{-1}) / odd.
  // Each correction also updates the syndromes, S_m ^= e * X^{fcr+m}:
  // syndromes are linear, so all-zero afterwards is exactly the test that
  // the corrected word is a codeword.  If not, the error pattern exceeded
  // the code's capability.
  out->data.assign(received.begin(), received.begin() + k_);
  int erasures_filled = 0;
  for (int idx = 0; idx < n_errors; ++idx) {
    const int pos = error_positions[idx];
    if (odd_sums[idx] == 0) return false;  // Lambda'(X^{-1}) == 0
    const int xlog = n_ - 1 - pos;
    const int xinv_log = Mod255(-xlog);
    GfElem omega_at = 0;
    for (int i = 0, power = 0; i < deg_lambda; ++i) {
      omega_at ^= exp[omega_log[i] + power];
      power = Add255(power, xinv_log);
    }
    if (is_erasure[pos]) ++erasures_filled;
    if (omega_at == 0) continue;  // zero-magnitude correction
    const int e_log = Mod255(static_cast<long>(log[omega_at]) - log[odd_sums[idx]] -
                             static_cast<long>(fcr_) * xlog);
    if (pos < k_) out->data[static_cast<std::size_t>(pos)] ^= exp[e_log];
    int term = Mod255(e_log + static_cast<long>(fcr_) * xlog);
    for (int m = 0; m < nroots; ++m) {
      s[m] ^= exp[term];
      term = Add255(term, xlog);
    }
  }
  GfElem residual = 0;
  for (int m = 0; m < nroots; ++m) residual |= s[m];
  if (residual != 0) return false;

  out->errors_corrected = n_errors - erasures_filled;
  out->erasures_filled = erasures_filled;
  return true;
}

}  // namespace osumac::fec
