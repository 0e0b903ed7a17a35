// Unit tests for the common utilities: tick arithmetic, intervals, bit I/O,
// statistics, the deterministic RNG and the fork/join parallel primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitio.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace osumac {
namespace {

// --- time -------------------------------------------------------------------

TEST(TimeTest, SymbolDurationsAreExact) {
  EXPECT_EQ(kTicksPerForwardSymbol, 15);
  EXPECT_EQ(kTicksPerReverseSymbol, 20);
  EXPECT_EQ(ForwardSymbols(3200), kTicksPerSecond);
  EXPECT_EQ(ReverseSymbols(2400), kTicksPerSecond);
}

TEST(TimeTest, PaperDurationsAreExactTicks) {
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(969)), 0.40375);   // data slot
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(210)), 0.0875);    // GPS slot
  EXPECT_DOUBLE_EQ(ToSeconds(ForwardSymbols(300)), 0.09375);   // fwd packet
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(300)), 0.125);     // rev packet
  EXPECT_DOUBLE_EQ(ToSeconds(FromMilliseconds(20)), 0.020);    // switch guard
}

TEST(IntervalTest, OverlapIsHalfOpen) {
  const Interval a{0, 10};
  const Interval b{10, 20};
  EXPECT_FALSE(a.Overlaps(b)) << "touching intervals do not overlap";
  EXPECT_TRUE(a.Overlaps({9, 11}));
  EXPECT_TRUE(a.Overlaps({-5, 1}));
  EXPECT_FALSE(a.Overlaps({-5, 0}));
  EXPECT_TRUE(a.Overlaps({3, 4}));  // containment
}

TEST(IntervalTest, PaddedGrowsBothSides) {
  const Interval a{100, 200};
  EXPECT_EQ(a.Padded(20), (Interval{80, 220}));
  // A 20 ms guard makes back-to-back TX/RX illegal but a gap of exactly
  // one guard legal (half-open).
  const Interval tx{0, 100};
  const Interval rx{100 + 960, 2000};
  EXPECT_FALSE(tx.Padded(960).Overlaps(rx));
  EXPECT_TRUE(tx.Padded(961).Overlaps(rx));
}

TEST(IntervalTest, ContainsAndLength) {
  const Interval a{5, 8};
  EXPECT_TRUE(a.Contains(5));
  EXPECT_TRUE(a.Contains(7));
  EXPECT_FALSE(a.Contains(8));
  EXPECT_EQ(a.length(), 3);
  EXPECT_TRUE((Interval{4, 4}.empty()));
}

// --- bit I/O -----------------------------------------------------------------

TEST(BitIoTest, RoundTripMixedWidths) {
  BitWriter w;
  w.Write(0b101, 3);
  w.Write(0xBEEF, 16);
  w.Write(0, 1);
  w.Write(0x3F, 6);
  w.Write(0x123456789ULL, 36);
  BitReader r(w.bytes());
  EXPECT_EQ(r.Read(3), 0b101u);
  EXPECT_EQ(r.Read(16), 0xBEEFu);
  EXPECT_EQ(r.Read(1), 0u);
  EXPECT_EQ(r.Read(6), 0x3Fu);
  EXPECT_EQ(r.Read(36), 0x123456789ULL);
  EXPECT_FALSE(r.overflowed());
}

TEST(BitIoTest, MsbFirstLayout) {
  BitWriter w;
  w.Write(1, 1);
  w.Write(0, 7);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0x80);
}

TEST(BitIoTest, ReadingPastEndOverflowsWithZeros) {
  BitWriter w;
  w.Write(0xFF, 8);
  BitReader r(w.bytes());
  EXPECT_EQ(r.Read(8), 0xFFu);
  EXPECT_EQ(r.Read(8), 0u);
  EXPECT_TRUE(r.overflowed());
}

TEST(BitIoTest, PaddingAndZeros) {
  BitWriter w;
  w.Write(0xA, 4);
  w.WriteZeros(100);
  EXPECT_EQ(w.bit_size(), 104);
  w.WriteZeros(48 * 8 - w.bit_size());
  const std::span<const std::uint8_t> padded = w.bytes();
  EXPECT_EQ(padded.size(), 48u);
  EXPECT_EQ(padded[0], 0xA0);
  for (std::size_t i = 13; i < 48; ++i) EXPECT_EQ(padded[i], 0);
}

TEST(BitIoTest, WritingPastTheInlineBufferIsACheckFailure) {
  BitWriter w;
  w.WriteZeros(BitWriter::kCapacityBytes * 8);  // exactly full is fine
  EXPECT_EQ(w.bytes().size(), static_cast<std::size_t>(BitWriter::kCapacityBytes));
  EXPECT_DEATH(w.Write(1, 1), "kCapacityBytes");
  EXPECT_DEATH(w.WriteZeros(1), "kCapacityBytes");
}

// Bit-at-a-time reference codec: the oracle the byte- and word-at-a-time
// BitWriter and BitReader must match bit for bit.
class OracleBitWriter {
 public:
  void Write(std::uint64_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
      const int bit = static_cast<int>((value >> i) & 1u);
      const std::size_t byte_index = static_cast<std::size_t>(bit_size_ / 8);
      const int bit_in_byte = 7 - (bit_size_ % 8);
      if (byte_index == bytes_.size()) bytes_.push_back(0);
      if (bit != 0) bytes_[byte_index] |= static_cast<std::uint8_t>(1u << bit_in_byte);
      ++bit_size_;
    }
  }
  void WriteZeros(int count) {
    for (int i = 0; i < count; ++i) Write(0, 1);
  }
  int bit_size() const { return bit_size_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  int bit_size_ = 0;
};

class OracleBitReader {
 public:
  explicit OracleBitReader(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}
  std::uint64_t Read(int width) {
    std::uint64_t value = 0;
    for (int i = 0; i < width; ++i) {
      const std::size_t byte_index = static_cast<std::size_t>(bit_pos_ / 8);
      int bit = 0;
      if (byte_index < bytes_.size()) {
        bit = (bytes_[byte_index] >> (7 - (bit_pos_ % 8))) & 1;
      } else {
        overflowed_ = true;
      }
      value = (value << 1) | static_cast<std::uint64_t>(bit);
      ++bit_pos_;
    }
    return value;
  }
  void Skip(int count) {
    bit_pos_ += count;
    if (bit_pos_ > static_cast<int>(bytes_.size()) * 8) overflowed_ = true;
  }
  bool overflowed() const { return overflowed_; }

 private:
  std::vector<std::uint8_t> bytes_;
  int bit_pos_ = 0;
  bool overflowed_ = false;
};

std::uint64_t RandomField(Rng& rng, int width) {
  const std::uint64_t v = rng.Next();
  return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}

/// A BitWriter and the oracle fed the same fields, with every field kept
/// for reading back.
class CheckedStream {
 public:
  static constexpr int kCapacityBits = BitWriter::kCapacityBytes * 8;

  int bit_size() const { return w_.bit_size(); }
  int room() const { return kCapacityBits - w_.bit_size(); }

  void Write(std::uint64_t value, int width) {
    w_.Write(value, width);
    oracle_.Write(value, width);
    written_.emplace_back(width, value);
  }
  void WriteZeros(int count) {
    w_.WriteZeros(count);
    oracle_.WriteZeros(count);
    // Zero runs read back in chunks of at most 64 bits.
    for (int left = count; left > 0; left -= 64) written_.emplace_back(std::min(left, 64), 0);
  }
  /// Random fields of random widths, `bits` in all.
  void WriteRandom(Rng& rng, int bits) {
    while (bits > 0) {
      const int width = std::min(bits, static_cast<int>(rng.UniformInt(1, 64)));
      Write(RandomField(rng, width), width);
      bits -= width;
    }
  }

  /// The writer's bytes, viewed at any point, equal the oracle's.
  void ExpectMatchesOracle(const std::string& where) {
    ASSERT_EQ(w_.bit_size(), oracle_.bit_size()) << where;
    ASSERT_EQ(std::vector<std::uint8_t>(w_.bytes().begin(), w_.bytes().end()),
              oracle_.bytes())
        << where;
  }
  /// Every field reads back from the writer's bytes.
  void ExpectReadsBack(const std::string& where) {
    BitReader r(w_.bytes());
    for (const auto& [width, value] : written_) {
      ASSERT_EQ(r.Read(width), value) << where << " width " << width;
    }
    EXPECT_FALSE(r.overflowed()) << where;
  }

 private:
  BitWriter w_;
  OracleBitWriter oracle_;
  std::vector<std::pair<int, std::uint64_t>> written_;
};

TEST(BitIoTest, WriterMatchesBitLoopOracleAndReadsBack) {
  Rng rng(0xB17);
  for (int trial = 0; trial < 300; ++trial) {
    CheckedStream stream;
    // Fields stop where the next one would overrun the writer's inline
    // buffer (WritingPastTheInlineBufferIsACheckFailure covers that).
    const int fields = static_cast<int>(rng.UniformInt(1, 40));
    for (int f = 0; f < fields; ++f) {
      if (rng.UniformInt(0, 7) == 0) {
        // Long enough to cross several 64-bit chunks.
        const int count = static_cast<int>(rng.UniformInt(0, 200));
        if (count > stream.room()) break;
        stream.WriteZeros(count);
      } else {
        const int width = static_cast<int>(rng.UniformInt(1, 64));
        if (width > stream.room()) break;
        stream.Write(RandomField(rng, width), width);
      }
      // Viewing the bytes mid-stream, then writing on, changes nothing.
      stream.ExpectMatchesOracle("trial " + std::to_string(trial) + " field " +
                                 std::to_string(f));
    }
    stream.ExpectReadsBack("trial " + std::to_string(trial));
  }

  // The writer keeps a 64-bit register and stores whole words: a field of
  // every width ends at every bit offset from 8 before to 8 after each
  // word boundary.  Random fields lead up to it; a zero run that may cross
  // words and more random fields take the stream to exactly 768 bits, the
  // writer's capacity.
  for (int boundary = 64; boundary < CheckedStream::kCapacityBits; boundary += 64) {
    for (int end = boundary - 8; end <= boundary + 8; ++end) {
      for (int width = 1; width <= 64; ++width) {
        if (width > end) continue;
        const std::string where = "field of " + std::to_string(width) + " bits ending at " +
                                  std::to_string(end);
        CheckedStream stream;
        stream.WriteRandom(rng, end - width);
        stream.Write(RandomField(rng, width), width);
        stream.ExpectMatchesOracle(where);
        stream.WriteZeros(std::min(stream.room(), static_cast<int>(rng.UniformInt(0, 140))));
        stream.ExpectMatchesOracle(where + ", zero run");
        stream.WriteRandom(rng, stream.room());
        ASSERT_EQ(stream.bit_size(), CheckedStream::kCapacityBits) << where;
        stream.ExpectMatchesOracle(where + ", full");
        stream.ExpectReadsBack(where);
      }
    }
  }
}

TEST(BitIoTest, ReaderMatchesBitLoopOracle) {
  Rng rng(0x4EAD);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(rng.UniformInt(0, 40)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    BitReader r(bytes);
    OracleBitReader oracle(bytes);
    // Keep going well past the end: zero fill and the overflow flag must
    // match the oracle at every step, for reads and skips alike.
    for (int step = 0; step < 30; ++step) {
      if (rng.UniformInt(0, 5) == 0) {
        const int count = static_cast<int>(rng.UniformInt(0, 70));
        r.Skip(count);
        oracle.Skip(count);
      } else {
        const int width = static_cast<int>(rng.UniformInt(1, 64));
        ASSERT_EQ(r.Read(width), oracle.Read(width))
            << "trial " << trial << " step " << step << " width " << width;
      }
      ASSERT_EQ(r.overflowed(), oracle.overflowed())
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(BitIoTest, NonAlignedFinalByteIsZeroPaddedAndReadsBack) {
  BitWriter w;
  w.Write(0x5, 3);
  w.Write(0x1FFFF, 17);  // 20 bits: the third byte holds 4 payload bits
  ASSERT_EQ(w.bytes().size(), 3u);
  EXPECT_EQ(w.bytes()[2] & 0x0F, 0) << "low bits of the final byte must be zero";
  BitReader r(w.bytes());
  EXPECT_EQ(r.Read(3), 0x5u);
  EXPECT_EQ(r.Read(17), 0x1FFFFu);
  EXPECT_FALSE(r.overflowed());
  EXPECT_EQ(r.Read(4), 0u) << "the padding reads as zeros, still in bounds";
  EXPECT_FALSE(r.overflowed());
  EXPECT_EQ(r.Read(1), 0u);
  EXPECT_TRUE(r.overflowed());
}

TEST(BitIoTest, SkipPastEndOverflowsAndLaterReadsAreZero) {
  const std::vector<std::uint8_t> bytes = {0xFF, 0xFF};
  BitReader r(bytes);
  r.Skip(16);
  EXPECT_FALSE(r.overflowed()) << "skipping exactly to the end is in bounds";
  r.Skip(1);
  EXPECT_TRUE(r.overflowed());
  EXPECT_EQ(r.Read(64), 0u);
}

// --- stats --------------------------------------------------------------------

TEST(StatsTest, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, SampleSetQuantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(StatsTest, JainFairness) {
  const double equal[] = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(equal), 1.0);
  const double unfair[] = {1, 0, 0, 0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(unfair), 0.25);  // 1/n
  const double mixed[] = {4, 2, 2};
  // (8)^2 / (3 * 24) = 64/72
  EXPECT_NEAR(JainFairnessIndex(mixed), 64.0 / 72.0, 1e-12);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
}

// --- rng -----------------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, ForkDiverges) {
  Rng a(123);
  Rng c = a.Fork();
  Rng d = a.Fork();
  EXPECT_NE(c.Next(), d.Next());
}

TEST(RngTest, UniformIntBounds) {
  Rng a(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng a(6);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += a.Exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(RngTest, BernoulliRate) {
  Rng a(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += a.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// --- parallel ----------------------------------------------------------------

TEST(ParallelForIndexTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  ParallelForIndex(257, 4, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForIndexTest, PropagatesWorkerException) {
  EXPECT_THROW(ParallelForIndex(64, 4,
                                [](int i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(TaskPoolTest, BarrierCompletesEveryIndexEachRound) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (int round = 1; round <= 5; ++round) {
    pool.Run(100, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    // Run() is a barrier, so every index is visible right here, every round.
    for (const auto& h : hits) ASSERT_EQ(h.load(), round);
  }
}

TEST(TaskPoolTest, SingleThreadRunsInline) {
  TaskPool pool(1);
  int sum = 0;  // no atomics needed: threads_ == 1 never spawns workers
  pool.Run(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(TaskPoolTest, ExceptionSurfacesAndPoolStaysUsable) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.Run(64, [](int i) { if (i == 7) throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> completed{0};
  pool.Run(64, [&](int) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), 64);
}

}  // namespace
}  // namespace osumac
