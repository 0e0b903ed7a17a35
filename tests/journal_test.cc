// Tests for the deterministic run journal (src/obs/run_journal.*): digest
// determinism across identical runs, prefix-equality of the chain up to an
// injected RNG perturbation, order-invariance of the merged run signature,
// the JSONL round trip, and the ExpectReference divergence trip dumping a
// FlightRecorder directory whose MANIFEST names the divergent cycle — the
// same post-mortem path osumac_sim --journal-expect takes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mac/cell.h"
#include "obs/event_trace.h"
#include "obs/flight_recorder.h"
#include "obs/run_journal.h"

namespace osumac {
namespace {

/// A journaled single-cell run: registration settles (12 cycles), stats
/// reset, then trace + journal attach so records cover the measured window
/// only — mirroring the warm-up boundary exp::ScenarioRun uses.
struct JournaledRun {
  explicit JournaledRun(std::uint64_t seed) {
    mac::CellConfig config;
    config.seed = seed;
    cell = std::make_unique<mac::Cell>(config);
    for (int i = 0; i < 6; ++i) {
      nodes.push_back(cell->AddSubscriber(false));
      cell->PowerOn(nodes.back());
    }
    cell->PowerOn(cell->AddSubscriber(true));
    cell->RunCycles(12);
    cell->ResetStats();
    cell->AttachTrace(&trace);
    cell->AttachJournal(&journal.AddCell(0));
  }

  /// Runs `cycles` cycles offering bursty uplink traffic to the front
  /// subscriber: a short message every fifth cycle, so its queue drains and
  /// the reservation lapses between bursts.  Every burst then re-contends,
  /// and each contention is a fresh draw from the subscriber's private RNG
  /// stream — the sequence a PerturbRngAt burn shifts.
  void Run(int cycles) {
    for (int c = 0; c < cycles; ++c) {
      if (c % 5 == 0) cell->SendUplinkMessage(nodes.front(), 60);
      cell->RunCycles(1);
    }
  }

  const std::vector<obs::JournalRecord>& records() const {
    return journal.cells()[0]->records();
  }

  obs::EventTrace trace{1 << 16};
  obs::RunJournal journal;
  std::unique_ptr<mac::Cell> cell;
  std::vector<int> nodes;
};

void ExpectRecordsEqual(const obs::JournalRecord& a,
                        const obs::JournalRecord& b) {
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.slot_grid, b.slot_grid);
  EXPECT_EQ(a.queues, b.queues);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.slo, b.slo);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.chain, b.chain);
}

TEST(JournalTest, IdenticalRunsProduceIdenticalChains) {
  JournaledRun a(31), b(31);
  a.Run(40);
  b.Run(40);
  const auto& ra = a.records();
  const auto& rb = b.records();
  ASSERT_EQ(ra.size(), 40u);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) ExpectRecordsEqual(ra[i], rb[i]);
  EXPECT_EQ(a.journal.cells()[0]->chain(), b.journal.cells()[0]->chain());
  EXPECT_EQ(a.journal.Signature(), b.journal.Signature());
  // Different seeds must not collide (the journal is a divergence detector,
  // not a constant).
  JournaledRun c(32);
  c.Run(40);
  EXPECT_NE(a.journal.Signature(), c.journal.Signature());
}

TEST(JournalTest, PerturbationDivergesStrictlyAfterInjectedCycle) {
  // One burned draw from subscriber 0's private RNG stream at absolute
  // cycle 20 (registration covers 0..11, the journal 12..91).  The chain
  // must agree through cycle 20 — the perturbation lands one tick after
  // the cycle-start planning — and part ways at some later cycle.
  JournaledRun clean(31), faulty(31);
  faulty.cell->PerturbRngAt(20);
  clean.Run(80);
  faulty.Run(80);
  const auto& ra = clean.records();
  const auto& rb = faulty.records();
  ASSERT_EQ(ra.size(), rb.size());
  std::size_t first = ra.size();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].chain != rb[i].chain) {
      first = i;
      break;
    }
  }
  ASSERT_LT(first, ra.size()) << "perturbation never surfaced in 80 cycles";
  EXPECT_GT(ra[first].cycle, 20);
  // Chain semantics: every record before the divergence is bit-identical.
  for (std::size_t i = 0; i < first; ++i) ExpectRecordsEqual(ra[i], rb[i]);
  EXPECT_NE(clean.journal.Signature(), faulty.journal.Signature());
}

TEST(JournalTest, SignatureIsMergeOrderInvariant) {
  obs::JournalRecord r1;
  r1.cycle = 7;
  r1.slot_grid = 0xaaa;
  r1.queues = 0xbbb;
  r1.counters = 0xccc;
  r1.slo = 0xddd;
  r1.events = 0xeee;
  obs::JournalRecord r2 = r1;
  r2.cycle = 9;
  r2.queues = 0xf0f;

  obs::RunJournal ab, ba;
  ab.AddCell(0).Append(r1);
  ab.AddCell(1).Append(r2);
  ba.AddCell(1).Append(r2);
  ba.AddCell(0).Append(r1);
  EXPECT_EQ(ab.Signature(), ba.Signature());

  // Same records under *swapped cell ids* must not collide: the fold keys
  // each chain by its cell.
  obs::RunJournal swapped;
  swapped.AddCell(0).Append(r2);
  swapped.AddCell(1).Append(r1);
  EXPECT_NE(ab.Signature(), swapped.Signature());

  // And a single flipped component bit changes the run signature.
  obs::RunJournal other;
  obs::JournalRecord r2x = r2;
  r2x.queues ^= 1;
  other.AddCell(0).Append(r1);
  other.AddCell(1).Append(r2x);
  EXPECT_NE(ab.Signature(), other.Signature());
}

TEST(JournalTest, JsonlRoundTripPreservesRecordsAndSignature) {
  JournaledRun run(31);
  run.Run(25);
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "journal_roundtrip.jsonl")
          .string();
  ASSERT_TRUE(obs::WriteJournalJsonl(run.journal, path, "# test provenance"));

  obs::LoadedJournal loaded;
  ASSERT_TRUE(obs::LoadJournalJsonl(path, &loaded));
  EXPECT_EQ(loaded.every, 1);
  EXPECT_EQ(loaded.signature, run.journal.Signature());
  ASSERT_EQ(loaded.cell_ids.size(), 1u);
  EXPECT_EQ(loaded.cell_ids[0], 0);
  const auto& original = run.records();
  ASSERT_EQ(loaded.cell_records[0].size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ExpectRecordsEqual(loaded.cell_records[0][i], original[i]);
  }
  std::remove(path.c_str());
}

TEST(JournalTest, DivergenceTripDumpsFlightManifestNamingTheCycle) {
  // The osumac_sim --journal-expect path in miniature: a reference run's
  // records are installed as the expectation of a perturbed run wired to a
  // FlightRecorder; the first mismatching record must trip the recorder
  // and the dumped MANIFEST must carry the divergent cycle and component.
  JournaledRun reference(31);
  reference.Run(80);

  JournaledRun live(31);
  obs::FlightRecorder recorder;
  recorder.AttachTrace(&live.trace);
  recorder.AttachSlo(&live.cell->slo());
  recorder.SetScenario("journal_test divergence scenario");
  recorder.SetProvenance("# test provenance");
  long long diverged_cycle = -1;
  int diverged_component = -2;
  live.journal.AddCell(0).ExpectReference(
      reference.records(),
      [&](const obs::JournalRecord& l, const obs::JournalRecord&,
          int component) {
        diverged_cycle = static_cast<long long>(l.cycle);
        diverged_component = component;
        char reason[128];
        std::snprintf(reason, sizeof reason,
                      "journal divergence: cycle %lld: %s hash diverged",
                      diverged_cycle,
                      component >= 0 && component < obs::kJournalComponentCount
                          ? obs::kJournalComponents[component]
                          : "chain");
        recorder.Trip(reason, l.cycle);
      });
  live.cell->PerturbRngAt(20);
  live.Run(80);

  ASSERT_TRUE(live.journal.cells()[0]->diverged());
  ASSERT_TRUE(recorder.tripped());
  ASSERT_GT(diverged_cycle, 20);
  ASSERT_GE(diverged_component, 0);
  EXPECT_EQ(recorder.trip_cycle(), diverged_cycle);

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "journal_test_flight";
  std::filesystem::remove_all(dir);
  std::string error;
  ASSERT_TRUE(recorder.Dump(dir.string(), &error)) << error;
  std::ifstream manifest(dir / "MANIFEST.txt");
  std::stringstream contents;
  contents << manifest.rdbuf();
  const std::string text = contents.str();
  std::ostringstream reason_line;
  reason_line << "reason: journal divergence: cycle " << diverged_cycle << ": "
              << obs::kJournalComponents[diverged_component]
              << " hash diverged";
  EXPECT_NE(text.find(reason_line.str()), std::string::npos) << text;
  std::ostringstream cycle_line;
  cycle_line << "cycle: " << diverged_cycle;
  EXPECT_NE(text.find(cycle_line.str()), std::string::npos) << text;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace osumac
