// Deterministic random number generation for simulations.
//
// Every stochastic component takes an explicit Rng (or a seed) so that runs
// are reproducible; there is no global RNG state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace osumac {

/// SplitMix64 increment (2^64 / phi), the standard stream-splitting gamma.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

/// One SplitMix64 output step (Steele, Lea & Flood, OOPSLA'14).
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The weight of row `index` in a keyed-sum digest, sum_i v_i * DigestKey(i)
/// (mod 2^64).  Such a sum costs one add per updated row, merges by
/// addition and ignores summation order.  Keys are odd, hence invertible
/// mod 2^64, so any change to one row's value changes the sum with
/// certainty; moving a count between two rows changes it iff their keys
/// differ (they do for every index range the simulator uses; the tests pin
/// it).  Used by obs::LogHistogram and the journal's counter-ledger fold.
constexpr std::uint64_t DigestKey(std::uint64_t index) { return SplitMix64(index) | 1; }

/// DigestKey(0) .. DigestKey(N - 1), computed at compile time.
template <std::size_t N>
inline constexpr std::array<std::uint64_t, N> kDigestKeys = [] {
  std::array<std::uint64_t, N> keys{};
  for (std::size_t i = 0; i < N; ++i) keys[i] = DigestKey(i);
  return keys;
}();

/// Sequential SplitMix64 generator: the k-th draw is SplitMix64(seed + k*gamma).
/// Used by the channel error models, which own their stream so the channel
/// never perturbs the simulation's std::mt19937_64 draw order.
class SplitMix64Rng {
 public:
  explicit SplitMix64Rng(std::uint64_t seed) : state_(seed) {}

  // Move-only: copying a stream forks it silently — two consumers would
  // replay the same draws, breaking the one-stream-per-consumer discipline
  // (exp/seed.h) that makes sweeps bit-identical at any job count.
  SplitMix64Rng(const SplitMix64Rng&) = delete;
  SplitMix64Rng& operator=(const SplitMix64Rng&) = delete;
  SplitMix64Rng(SplitMix64Rng&&) = default;
  SplitMix64Rng& operator=(SplitMix64Rng&&) = default;

  /// Raw 64-bit draw.
  [[nodiscard]] std::uint64_t Next() {
    const std::uint64_t out = SplitMix64(state_);
    state_ += kSplitMix64Gamma;
    return out;
  }

  /// Uniform double in the OPEN interval (0, 1) — safe as a log() argument.
  [[nodiscard]] double NextOpenDouble() {
    return (static_cast<double>(Next() >> 12) + 0.5) * 0x1.0p-52;
  }

 private:
  std::uint64_t state_;
};

/// Derives the seed of the `index`-th sibling sub-stream of `seed`.
///
/// Mixes the root seed through SplitMix64 *before* adding the per-index
/// offset, so distinct (seed, index) pairs cannot collide the way plain
/// `seed + index * constant` does (e.g. seeds 7/index 2 and 7 + 2*gamma /
/// index 0 are the same additive stream).  This is the required spelling for
/// fanning one seed out to N peer consumers — per-cell Network seeds, sweep
/// workers, anything sharded by index.
[[nodiscard]] inline std::uint64_t DeriveSubstreamSeed(std::uint64_t seed,
                                                      std::uint64_t index) {
  return SplitMix64(SplitMix64(seed) + index * kSplitMix64Gamma);
}

/// A seeded pseudo-random generator with the distribution helpers the
/// simulator needs.  Thin wrapper over std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Move-only, like SplitMix64Rng: an accidental copy is an accidental
  // stream fork.  Components that need an independent stream take one by
  // value (moved in) or call Fork(), which advances the parent.
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Geometric number of failures before first success, success prob p.
  [[nodiscard]] std::int64_t Geometric(double p) {
    return std::geometric_distribution<std::int64_t>(p)(engine_);
  }

  /// Derives an independent child generator (e.g. one per subscriber).
  [[nodiscard]] Rng Fork() { return Rng(engine_()); }

  /// Raw 64-bit draw.
  [[nodiscard]] std::uint64_t Next() { return engine_(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace osumac
