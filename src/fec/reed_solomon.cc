#include "fec/reed_solomon.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "obs/profiler.h"

namespace osumac::fec {

namespace {
const Gf256& gf() { return Gf256::Instance(); }
}  // namespace

ReedSolomon::ReedSolomon(int n, int k, int first_consecutive_root)
    : n_(n), k_(k), fcr_(first_consecutive_root) {
  OSUMAC_CHECK(0 < k && k < n && n <= kMaxN);
  // g(x) = (x - a^fcr)(x - a^{fcr+1}) ... (x - a^{fcr+n-k-1})
  std::vector<GfElem> generator = {1};  // lint: allow-hot-alloc (constructor-time setup)
  for (int i = 0; i < n_ - k_; ++i) {
    generator = poly::Mul(generator, {gf().Exp(fcr_ + i), 1});
  }
  const int nroots = n_ - k_;
  syndrome_pow_log_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(nroots));
  for (int j = 0; j < n_; ++j) {
    for (int m = 0; m < nroots; ++m) {
      // Contribution of symbol j (coefficient of x^{n-1-j}) to syndrome m:
      // r_j * alpha^{(fcr+m)(n-1-j)}.
      long e = static_cast<long>(fcr_ + m) * (n_ - 1 - j);
      e %= 255;
      if (e < 0) e += 255;
      syndrome_pow_log_[static_cast<std::size_t>(j) * static_cast<std::size_t>(nroots) +
                        static_cast<std::size_t>(m)] = static_cast<int>(e);
    }
  }
  // Row f holds f * g(x)'s coefficients highest-first (g monic, so its
  // leading 1 is dropped): the register update of one feedback symbol.
  encode_table_.resize(256 * static_cast<std::size_t>(nroots));
  for (int f = 0; f < 256; ++f) {
    for (int j = 0; j < nroots; ++j) {
      const GfElem g = generator[static_cast<std::size_t>(nroots - 1 - j)];
      encode_table_[static_cast<std::size_t>(f) * static_cast<std::size_t>(nroots) +
                    static_cast<std::size_t>(j)] = gf().Mul(static_cast<GfElem>(f), g);
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

void ReedSolomon::EncodeInto(std::span<const GfElem> data, std::span<GfElem> out) const {
  OSUMAC_PROFILE_ZONE("fec.encode");
  OSUMAC_CHECK_EQ(static_cast<int>(data.size()), k_);
  OSUMAC_CHECK_EQ(static_cast<int>(out.size()), n_);
  const int nroots = n_ - k_;

  // Systematic LFSR encode: parity = (data(x) * x^{n-k}) mod g(x).  Each
  // symbol shifts the register one place and XORs in the product-table
  // row of its feedback; row 0 is all zeros, so no branch on it.
  // parity[nroots] is a constant zero the shift reads past the end.
  GfElem parity[kMaxN + 1];
  std::memset(parity, 0, static_cast<std::size_t>(nroots) + 1);
  const GfElem* table = encode_table_.data();
  for (int i = 0; i < k_; ++i) {
    const GfElem feedback = static_cast<GfElem>(data[static_cast<std::size_t>(i)] ^ parity[0]);
    const GfElem* row =
        table + static_cast<std::size_t>(feedback) * static_cast<std::size_t>(nroots);
    for (int j = 0; j < nroots; ++j) {
      parity[j] = static_cast<GfElem>(parity[j + 1] ^ row[j]);
    }
  }
  std::copy(data.begin(), data.end(), out.begin());
  std::copy(parity, parity + nroots, out.begin() + k_);
}

std::vector<GfElem> ReedSolomon::Encode(std::span<const GfElem> data) const {
  std::vector<GfElem> codeword(static_cast<std::size_t>(n_));  // lint: allow-hot-alloc (allocating wrapper; hot paths use EncodeInto)
  EncodeInto(data, codeword);
  return codeword;
}

int ReedSolomon::ComputeSyndromes(std::span<const GfElem> received, GfElem* s) const {
  const int nroots = n_ - k_;
  const GfElem* exp = gf().exp_table();
  const int* log = gf().log_table();
  std::memset(s, 0, static_cast<std::size_t>(nroots));
  // Symbol-major accumulation over the precomputed power table: zero
  // symbols contribute nothing and are skipped without any field math.
  const int* row = syndrome_pow_log_.data();
  for (int j = 0; j < n_; ++j, row += nroots) {
    const GfElem c = received[static_cast<std::size_t>(j)];
    if (c == 0) continue;
    const int clog = log[c];
    for (int m = 0; m < nroots; ++m) {
      s[m] = static_cast<GfElem>(s[m] ^ exp[clog + row[m]]);
    }
  }
  int nonzero = 0;
  for (int m = 0; m < nroots; ++m) nonzero |= s[m];
  return nonzero;
}

bool ReedSolomon::IsCodeword(std::span<const GfElem> word) const {
  OSUMAC_CHECK_EQ(static_cast<int>(word.size()), n_);
  GfElem s[kMaxN];
  return ComputeSyndromes(word, s) == 0;
}

std::optional<DecodeResult> ReedSolomon::Decode(std::span<const GfElem> received) const {
  return DecodeWithErasures(received, {});
}

std::optional<DecodeResult> ReedSolomon::DecodeWithErasures(
    std::span<const GfElem> received, std::span<const int> erasure_positions) const {
  DecodeResult result;  // lint: allow-hot-alloc (allocating wrapper; hot paths use DecodeWithErasuresInto)
  if (!DecodeImpl(received, erasure_positions, &result, /*allow_syndrome_fast_path=*/true)) {
    return std::nullopt;
  }
  return result;
}

bool ReedSolomon::DecodeInto(std::span<const GfElem> received, DecodeResult* out) const {
  return DecodeImpl(received, {}, out, /*allow_syndrome_fast_path=*/true);
}

bool ReedSolomon::DecodeWithErasuresInto(std::span<const GfElem> received,
                                         std::span<const int> erasure_positions,
                                         DecodeResult* out) const {
  return DecodeImpl(received, erasure_positions, out, /*allow_syndrome_fast_path=*/true);
}

bool ReedSolomon::DecodeWithErasuresFullInto(std::span<const GfElem> received,
                                             std::span<const int> erasure_positions,
                                             DecodeResult* out) const {
  return DecodeImpl(received, erasure_positions, out, /*allow_syndrome_fast_path=*/false);
}

bool ReedSolomon::DecodeImpl(std::span<const GfElem> received,
                             std::span<const int> erasure_positions, DecodeResult* out,
                             bool allow_syndrome_fast_path) const {
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

  GfElem s[kMaxN];
  const int any_nonzero = ComputeSyndromes(received, s);
  if (any_nonzero == 0 && allow_syndrome_fast_path) {
    // Clean reception — the overwhelmingly common case at the paper's
    // error rates.  Berlekamp-Massey, Chien and Forney are skipped
    // entirely; erasure flags on a word that already checks out carry no
    // information to act on.
    out->data.assign(received.begin(), received.begin() + k_);
    out->errors_corrected = 0;
    out->erasures_filled = 0;
    return true;
  }

  const GfElem* exp = gf().exp_table();
  const int* log = gf().log_table();

  // All polynomial buffers live on the stack: degree never exceeds nroots,
  // and b(x) grows by at most one coefficient per Berlekamp-Massey round.
  constexpr int kPolyCap = kMaxN + 2;
  GfElem lambda[kPolyCap];
  GfElem b[kPolyCap];
  GfElem t[kPolyCap];

  // Erasure locator Gamma(x) = prod (1 + X_j x), X_j = alpha^{n-1-pos}.
  lambda[0] = 1;
  int lambda_len = 1;
  for (const int pos : erasure_positions) {
    // lambda <- lambda * (1 + X x): new coefficient i is l_i + X * l_{i-1}.
    const int xlog = gf().Log(gf().Exp(n_ - 1 - pos));
    lambda[lambda_len] = 0;
    for (int i = lambda_len; i >= 1; --i) {
      const GfElem lo = lambda[i - 1];
      lambda[i] = static_cast<GfElem>(lambda[i] ^ (lo == 0 ? 0 : exp[log[lo] + xlog]));
    }
    ++lambda_len;
  }

  // Berlekamp-Massey, initialized with the erasure locator
  // (errors-and-erasures variant; see Blahut, "Theory and Practice of
  // Error Control Codes", the paper's reference [1]).
  std::memcpy(b, lambda, static_cast<std::size_t>(lambda_len));
  int b_len = lambda_len;
  int el = f;
  for (int r = f + 1; r <= nroots; ++r) {
    GfElem discrepancy = 0;
    for (int i = 0; i < lambda_len; ++i) {
      const int sidx = r - i - 1;
      if (sidx >= 0 && sidx < nroots && lambda[i] != 0 && s[sidx] != 0) {
        discrepancy ^= exp[log[lambda[i]] + log[s[sidx]]];
      }
    }
    if (discrepancy == 0) {
      // b <- x * b
      OSUMAC_DCHECK(b_len + 1 <= kPolyCap);
      std::memmove(b + 1, b, static_cast<std::size_t>(b_len));
      b[0] = 0;
      ++b_len;
      continue;
    }
    // t(x) = lambda(x) + discrepancy * x * b(x)
    const int dlog = log[discrepancy];
    const int t_len = std::max(lambda_len, b_len + 1);
    OSUMAC_DCHECK(t_len <= kPolyCap);
    for (int i = 0; i < t_len; ++i) {
      const GfElem from_lambda = i < lambda_len ? lambda[i] : 0;
      const GfElem from_b = (i >= 1 && i - 1 < b_len) ? b[i - 1] : 0;
      t[i] = static_cast<GfElem>(from_lambda ^
                                 (from_b == 0 ? 0 : exp[log[from_b] + dlog]));
    }
    if (2 * el <= r + f - 1) {
      el = r + f - el;
      // b = lambda / discrepancy
      const int inv_log = 255 - dlog;
      for (int i = 0; i < lambda_len; ++i) {
        b[i] = lambda[i] == 0 ? 0 : exp[log[lambda[i]] + inv_log];
      }
      b_len = lambda_len;
    } else {
      OSUMAC_DCHECK(b_len + 1 <= kPolyCap);
      std::memmove(b + 1, b, static_cast<std::size_t>(b_len));
      b[0] = 0;
      ++b_len;
    }
    std::memcpy(lambda, t, static_cast<std::size_t>(t_len));
    lambda_len = t_len;
  }

  int deg_lambda = -1;
  for (int i = lambda_len - 1; i >= 0; --i) {
    if (lambda[i] != 0) {
      deg_lambda = i;
      break;
    }
  }
  if (deg_lambda < 0 || deg_lambda > nroots) return false;

  // Chien search over the shortened codeword positions.
  int error_positions[kMaxN];
  GfElem locators[kMaxN];  // X_i for each found position
  int n_errors = 0;
  for (int j = 0; j < n_; ++j) {
    const GfElem x_inv = gf().Exp(-(n_ - 1 - j));
    // Horner evaluation of lambda at x_inv.
    GfElem acc = 0;
    const int xlog = log[x_inv];
    for (int i = deg_lambda; i >= 0; --i) {
      acc = static_cast<GfElem>((acc == 0 ? 0 : exp[log[acc] + xlog]) ^ lambda[i]);
    }
    if (acc == 0) {
      if (n_errors >= deg_lambda + 1) return false;  // more roots than degree
      error_positions[n_errors] = j;
      locators[n_errors] = gf().Exp(n_ - 1 - j);
      ++n_errors;
    }
  }
  // A valid locator polynomial has exactly deg_lambda roots among the
  // codeword positions; anything else means > t errors: decode failure.
  if (n_errors != deg_lambda) return false;

  // Forney: Omega(x) = S(x) * Lambda(x) mod x^{nroots}.
  GfElem omega[kMaxN];
  for (int m = 0; m < nroots; ++m) {
    GfElem acc = 0;
    const int hi = std::min(m, lambda_len - 1);
    for (int i = 0; i <= hi; ++i) {
      const GfElem a = lambda[i];
      const GfElem c = s[m - i];
      if (a != 0 && c != 0) acc ^= exp[log[a] + log[c]];
    }
    omega[m] = acc;
  }
  // Lambda'(x): in characteristic 2, even-power terms vanish.
  GfElem lambda_prime[kPolyCap] = {};
  int lambda_prime_deg = -1;
  for (int i = 1; i <= deg_lambda; i += 2) {
    lambda_prime[i - 1] = lambda[i];
    if (lambda[i] != 0) lambda_prime_deg = i - 1;
  }

  GfElem corrected[kMaxN];
  std::copy(received.begin(), received.end(), corrected);
  for (int idx = 0; idx < n_errors; ++idx) {
    const GfElem x = locators[idx];
    const GfElem x_inv = gf().Inverse(x);
    const int xlog = log[x_inv];
    auto eval_at_xinv = [&](const GfElem* p, int deg) {
      GfElem acc = 0;
      for (int i = deg; i >= 0; --i) {
        acc = static_cast<GfElem>((acc == 0 ? 0 : exp[log[acc] + xlog]) ^ p[i]);
      }
      return acc;
    };
    const GfElem denom = eval_at_xinv(lambda_prime, lambda_prime_deg);
    if (denom == 0) return false;
    // e = X^{1-fcr} * Omega(X^{-1}) / Lambda'(X^{-1})
    const GfElem num = gf().Mul(eval_at_xinv(omega, nroots - 1), gf().Pow(x, 1 - fcr_));
    const GfElem magnitude = gf().Div(num, denom);
    corrected[error_positions[idx]] ^= magnitude;
  }

  // Re-check the syndromes of the corrected word; if still non-zero the
  // error pattern exceeded the code's capability.
  GfElem recheck[kMaxN];
  if (ComputeSyndromes(std::span<const GfElem>(corrected, static_cast<std::size_t>(n_)),
                       recheck) != 0) {
    return false;
  }

  out->data.assign(corrected, corrected + k_);
  int erasures_filled = 0;
  int errors_corrected = 0;
  for (int idx = 0; idx < n_errors; ++idx) {
    if (is_erasure[error_positions[idx]]) {
      ++erasures_filled;
    } else {
      ++errors_corrected;
    }
  }
  out->errors_corrected = errors_corrected;
  out->erasures_filled = erasures_filled;
  return true;
}

}  // namespace osumac::fec
