// A frozen textbook errors-and-erasures Reed-Solomon decoder, kept only as
// the oracle the optimized fec::ReedSolomon is checked against.  It shares
// nothing with the codec but the GF(256) field: syndromes straight from
// the definition S_m = sum_j r_j alpha^{(fcr+m)(n-1-j)}, Berlekamp-Massey
// on plain field products, a Chien search that evaluates Lambda by Horner
// at every position and fails on more roots than its degree, Forney, and
// a full syndrome pass over the corrected word.  Slow by design; do not
// optimize it.
#pragma once

#include <algorithm>
#include <vector>

#include "fec/gf256.h"
#include "fec/reed_solomon.h"

namespace osumac::fec::reference {

/// The n-k syndromes of `r` by definition.
inline std::vector<GfElem> Syndromes(const std::vector<GfElem>& r, int n, int k,
                                     int fcr) {
  const Gf256& gf = Gf256::Instance();
  std::vector<GfElem> s(static_cast<std::size_t>(n - k), 0);
  for (int m = 0; m < n - k; ++m) {
    for (int j = 0; j < n; ++j) {
      s[static_cast<std::size_t>(m)] ^=
          gf.Mul(r[static_cast<std::size_t>(j)], gf.Exp((fcr + m) * (n - 1 - j)));
    }
  }
  return s;
}

inline bool AllZero(const std::vector<GfElem>& v) {
  return std::all_of(v.begin(), v.end(), [](GfElem x) { return x == 0; });
}

/// Decodes an n-symbol word of the RS(n, k) code with first consecutive
/// root `fcr`, with the contract of ReedSolomon::DecodeWithErasuresInto:
/// false on failure or invalid erasure side information (more than n-k
/// positions, a duplicate, or one outside [0, n)); a word whose syndromes
/// are all zero decodes with no corrections whatever its erasure flags.
inline bool Decode(const std::vector<GfElem>& received, int n, int k, int fcr,
                   const std::vector<int>& erasures, DecodeResult* out) {
  const Gf256& gf = Gf256::Instance();
  const int nroots = n - k;
  const int f = static_cast<int>(erasures.size());
  if (f > nroots) return false;
  std::vector<bool> is_erasure(static_cast<std::size_t>(n), false);
  for (const int pos : erasures) {
    if (pos < 0 || pos >= n || is_erasure[static_cast<std::size_t>(pos)]) return false;
    is_erasure[static_cast<std::size_t>(pos)] = true;
  }

  const std::vector<GfElem> s = Syndromes(received, n, k, fcr);
  if (AllZero(s)) {
    out->data.assign(received.begin(), received.begin() + k);
    out->errors_corrected = 0;
    out->erasures_filled = 0;
    return true;
  }

  // Erasure locator Gamma(x) = prod (1 + X_j x), X_j = alpha^{n-1-pos}.
  std::vector<GfElem> lambda = {1};
  for (const int pos : erasures) lambda = poly::Mul(lambda, {1, gf.Exp(n - 1 - pos)});

  // Berlekamp-Massey initialized with the erasure locator.
  std::vector<GfElem> b = lambda;
  int el = f;
  for (int r = f + 1; r <= nroots; ++r) {
    GfElem delta = 0;
    for (int i = 0; i < static_cast<int>(lambda.size()) && i < r; ++i) {
      delta ^= gf.Mul(lambda[static_cast<std::size_t>(i)],
                      s[static_cast<std::size_t>(r - 1 - i)]);
    }
    std::vector<GfElem> xb = b;
    xb.insert(xb.begin(), 0);
    if (delta == 0) {
      b = xb;
      continue;
    }
    const std::vector<GfElem> t = poly::Add(lambda, poly::Scale(xb, delta));
    if (2 * el <= r + f - 1) {
      el = r + f - el;
      b = poly::Scale(lambda, gf.Inverse(delta));
    } else {
      b = xb;
    }
    lambda = t;
  }
  const int deg = poly::Degree(lambda);
  if (deg < 0 || deg > nroots) return false;

  // Chien search: Lambda(X_j^{-1}) by Horner at every position.
  std::vector<int> positions;
  for (int j = 0; j < n; ++j) {
    if (poly::Eval(lambda, gf.Exp(-(n - 1 - j))) == 0) {
      // More roots than the degree: not a locator.
      if (static_cast<int>(positions.size()) >= deg) return false;
      positions.push_back(j);
    }
  }
  if (static_cast<int>(positions.size()) != deg) return false;

  // Forney: Omega(x) = S(x) Lambda(x) mod x^{n-k};
  // e = X^{1-fcr} Omega(X^{-1}) / Lambda'(X^{-1}).
  std::vector<GfElem> omega = poly::Mul(s, lambda);
  omega.resize(static_cast<std::size_t>(nroots));
  const std::vector<GfElem> lambda_prime = poly::Derivative(lambda);
  std::vector<GfElem> corrected = received;
  for (const int pos : positions) {
    const GfElem x = gf.Exp(n - 1 - pos);
    const GfElem x_inv = gf.Inverse(x);
    const GfElem denom = poly::Eval(lambda_prime, x_inv);
    if (denom == 0) return false;
    const GfElem num = gf.Mul(poly::Eval(omega, x_inv), gf.Pow(x, 1 - fcr));
    corrected[static_cast<std::size_t>(pos)] ^= gf.Div(num, denom);
  }
  if (!AllZero(Syndromes(corrected, n, k, fcr))) return false;

  out->data.assign(corrected.begin(), corrected.begin() + k);
  out->erasures_filled = 0;
  for (const int pos : positions) {
    if (is_erasure[static_cast<std::size_t>(pos)]) ++out->erasures_filled;
  }
  out->errors_corrected = static_cast<int>(positions.size()) - out->erasures_filled;
  return true;
}

}  // namespace osumac::fec::reference
