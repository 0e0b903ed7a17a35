// Deterministic per-cycle run journal: the divergence-localization layer.
//
// A journal is a rolling digest chain over each cell's MAC-visible state,
// computed once per notification cycle by an allocation-free hash hook in
// the cell driver (mac::Cell / mac::PolicyCell).  Each record carries the
// component hashes separately — slot grids, reservation queues, counters,
// SLO buckets, event-trace fingerprint — plus the chained digest, so a
// cross-run diff (tools/osumac_diff.py) can name not just the first cycle
// where two runs part ways but *which component* moved first.
//
// Schema osumac-journal-v2 (kJournalSchema) keeps the record cheap where
// the state is wide.  The SLO histograms and the counter ledgers enter as
// keyed sums, sum_i v_i * DigestKey(i) mod 2^64 (common/rng.h): each
// LogHistogram keeps its bucket sum up to date at one add per sample, and
// the ledger fold is a run of independent multiply-adds.  A change to any
// one bucket or ledger row moves its sum with certainty (the keys are odd),
// and so does moving a sample between two buckets; only coordinated
// changes to several rows can cancel, with chance about 2^-64 for unrelated
// changes.  Everything else is mixed through the Digest64 chain.
//
// Thread confinement mirrors the PR 7 rollups: one CellJournal per cell,
// written only by the thread driving that cell, merged order-invariantly
// into a run signature afterwards (Signature() is a commutative fold, so a
// future parallel Network can journal without synchronization).  Cost when
// disabled is one null-pointer branch per cycle — the same CI-gated
// guarantee the event trace carries (tools/check_perf.py gates a journaled
// sweep at 1.10x of the journal-off wall-clock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace osumac::obs {

/// Allocation-free rolling 64-bit digest (SplitMix64 finalizer per word).
/// Not cryptographic — it localizes honest divergence, it does not resist
/// adversaries.  Mix order matters (this is a chain, not a set).
class Digest64 {
 public:
  void Mix(std::uint64_t v) {
    std::uint64_t x = state_ ^ (v + 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    state_ = x ^ (x >> 31);
  }
  void MixSigned(std::int64_t v) { Mix(static_cast<std::uint64_t>(v)); }
  /// Doubles are mixed through their bit pattern: every value the MAC layer
  /// journals is derived deterministically, so bit equality is the right
  /// notion of "same".
  void MixDouble(double v);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x6f73756d61635f6aULL;  // "osumac_j"
};

/// One journaled cycle of one cell.  `chain` folds this record's component
/// hashes into the previous record's chain, so equal chains at cycle N
/// imply the whole journaled history up to N matched.
struct JournalRecord {
  std::int64_t cycle = 0;
  std::uint64_t slot_grid = 0;  ///< reverse/forward schedules, format, CF2 listener
  std::uint64_t queues = 0;     ///< registration/demand tables, per-node queue depths
  std::uint64_t counters = 0;   ///< cumulative driver counters
  std::uint64_t slo = 0;        ///< SLO monitor buckets and miss counters
  std::uint64_t events = 0;     ///< event-trace fingerprint of the previous cycle
  std::uint64_t chain = 0;      ///< rolling digest over everything above
};

/// Stable component names, in JournalRecord field order (shared by the
/// JSONL writer, tools/osumac_diff.py and the divergence trip reason).
inline constexpr const char* kJournalComponents[] = {
    "slot_grid", "queues", "counters", "slo", "events"};
inline constexpr int kJournalComponentCount = 5;

/// Per-cell journal.  Thread-confined: no locking, written only by the
/// cell's driving thread.  Bounded: past `max_records` retained records the
/// chain keeps advancing (so Signature() still covers the whole run) but
/// records are dropped and counted.
class CellJournal {
 public:
  struct Config {
    int every = 1;  ///< journal every N-th cycle (>= 1)
    std::size_t max_records = std::size_t{1} << 20;
  };

  explicit CellJournal(int cell);
  CellJournal(int cell, Config config);

  int cell() const { return cell_; }
  int every() const { return config_.every; }

  /// True when the hook should build a record for `cycle` (cheap; the
  /// driver calls this behind its journal null check).
  bool ShouldRecord(std::int64_t cycle) const {
    return cycle % config_.every == 0;
  }

  /// Chains and stores one record.  `record.chain` is ignored on input and
  /// overwritten with the rolling value.  Returns the stored chain.
  std::uint64_t Append(JournalRecord record);

  /// Installs a reference trace to compare against, record by record: the
  /// first mismatching Append invokes `on_divergence(live, reference,
  /// component_index)` (component index into kJournalComponents, or -1 when
  /// only the chain differs) exactly once.  This is how a live run trips
  /// the FlightRecorder while the in-window trace is still warm.
  void ExpectReference(
      std::vector<JournalRecord> reference,
      std::function<void(const JournalRecord&, const JournalRecord&, int)>
          on_divergence);

  /// True once an ExpectReference comparison has failed.
  bool diverged() const { return diverged_; }

  const std::vector<JournalRecord>& records() const { return records_; }
  std::uint64_t chain() const { return chain_; }
  /// Records chained since construction/Reset (retained + dropped).
  std::int64_t recorded() const { return recorded_; }
  std::int64_t dropped() const {
    return recorded_ - static_cast<std::int64_t>(records_.size());
  }

  /// Clears records and restarts the chain (warm-up boundary), keeping the
  /// configuration and any installed reference.
  void Reset();

 private:
  int cell_;
  Config config_;
  std::vector<JournalRecord> records_;
  std::uint64_t chain_ = 0;
  std::int64_t recorded_ = 0;
  std::vector<JournalRecord> reference_;
  std::size_t ref_pos_ = 0;  ///< next reference record to compare against
  std::function<void(const JournalRecord&, const JournalRecord&, int)>
      on_divergence_;
  bool diverged_ = false;
};

/// A whole run's journal: one CellJournal per cell plus an order-invariant
/// run signature.  Cells register up front (single-cell runs use cell 0);
/// journaling itself then touches only the cell's own CellJournal.
class RunJournal {
 public:
  RunJournal();
  explicit RunJournal(CellJournal::Config config);

  /// Adds (or returns the existing) journal for `cell`.  The returned
  /// reference is stable across later AddCell calls (cells are
  /// heap-anchored), so drivers may keep the pointer for the whole run.
  CellJournal& AddCell(int cell);
  CellJournal* FindCell(int cell);
  const std::vector<std::unique_ptr<CellJournal>>& cells() const {
    return cells_;
  }
  int every() const { return config_.every; }

  /// Order-invariant run signature: a commutative fold of the per-cell
  /// chains (each keyed by its cell id), so any merge order — or a future
  /// parallel Network — produces the same value.  Equal signatures imply
  /// equal per-cell chains with overwhelming probability; unequal ones send
  /// you to tools/osumac_diff.py for the cycle-level story.
  std::uint64_t Signature() const;

  void Reset();

 private:
  CellJournal::Config config_;
  std::vector<std::unique_ptr<CellJournal>> cells_;
};

/// The header schema of the journal JSONL.  v2 hashes the SLO histograms
/// and counter ledgers as keyed sums (common/rng.h DigestKey), so its
/// digests are not comparable with v1's.
inline constexpr char kJournalSchema[] = "osumac-journal-v2";

/// Formats a digest the way every journal surface spells it (JSONL, sweep
/// JSON, trip reasons, osumac_diff): zero-padded lowercase hex.
std::string JournalHex(std::uint64_t digest);

/// Writes the journal as JSONL: one header object (schema, every,
/// signature), then one object per retained record, cells in id order.
/// Returns false (and writes nothing) if the file cannot be opened.
bool WriteJournalJsonl(const RunJournal& journal, const std::string& path,
                       const std::string& provenance = "");

/// Parses a journal JSONL file written by WriteJournalJsonl back into
/// per-cell record vectors (header signature, if present, is returned via
/// `signature`).  Tolerates unknown keys.  Returns false on malformed
/// input and on a file whose header schema is not kJournalSchema (`schema`
/// then holds what the header said, "" if it had none): digests of another
/// schema would read as a divergence at the first record.  Used by
/// osumac_sim --journal-expect and tests; the Python diff tool has its own
/// reader.
struct LoadedJournal {
  std::string schema;
  int every = 1;
  std::uint64_t signature = 0;
  std::vector<int> cell_ids;
  std::vector<std::vector<JournalRecord>> cell_records;  ///< parallel to cell_ids
};
bool LoadJournalJsonl(const std::string& path, LoadedJournal* out);

}  // namespace osumac::obs
