// Hot-path micro-benchmarks of the PHY/FEC simulation core, feeding the
// BENCH_perf.json regression gate (tools/check_perf.py).
//
// Each phase times the operations the 52-point figure sweep actually spends
// its wall-clock on:
//   hotpath_rs_encode          RS(64,48) systematic encode (EncodeInto)
//   hotpath_rs_decode_clean    decode of untouched codewords — the
//                              re-encode clean check
//   hotpath_rs_decode_corrupt  decode with 4 symbol errors — the full
//                              Berlekamp-Massey / Chien / Forney pipeline
//   hotpath_channel_uniform    UniformErrorModel geometric skip-sampling
//   hotpath_cycle_untraced     a short scenario run with no trace attached
//   hotpath_cycle_traced       the same scenario with an EventTrace attached
//   hotpath_cycle_profiled     the same scenario with an obs::Profiler
//                              installed (every OSUMAC_PROFILE_ZONE live)
//
// The gate checks *relative* invariants that hold on any machine (clean
// decode must beat corrupt decode, the untraced cycle step must not cost
// more than the traced one), so absolute machine speed never breaks CI.
//
// With --merge-into FILE the phases are spliced into an existing
// BENCH_perf.json written by make_figures (replacing any previous
// hotpath_* entries); otherwise a standalone JSON goes to --out or stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_provenance.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "fec/reed_solomon.h"
#include "obs/event_trace.h"
#include "obs/profiler.h"
#include "obs/wallclock.h"
#include "phy/channel.h"
#include "phy/error_model.h"

using namespace osumac;
using fec::GfElem;

namespace {

std::vector<GfElem> RandomData(int k, Rng& rng) {
  std::vector<GfElem> data(static_cast<std::size_t>(k));
  for (auto& b : data) b = static_cast<GfElem>(rng.UniformInt(0, 255));
  return data;
}

void BenchRsPhases(obs::WallTimerRegistry& wall, int reps) {
  const auto& rs = fec::ReedSolomon::Osu6448();
  Rng rng(11);
  constexpr int kWords = 4000;
  std::vector<std::vector<GfElem>> datas;
  std::vector<std::vector<GfElem>> clean;
  std::vector<std::vector<GfElem>> corrupt;
  for (int i = 0; i < kWords; ++i) {
    datas.push_back(RandomData(rs.k(), rng));
    clean.push_back(rs.Encode(datas.back()));
    corrupt.push_back(clean.back());
    for (int e = 0; e < 4; ++e) {  // 4 errors: inside capability, full pipeline
      corrupt.back()[static_cast<std::size_t>(13 * (e + 1))] ^=
          static_cast<GfElem>(rng.UniformInt(1, 255));
    }
  }
  std::vector<GfElem> out(static_cast<std::size_t>(rs.n()));
  fec::DecodeResult result;
  for (int r = 0; r < reps; ++r) {
    {
      obs::ScopedWallTimer t(wall, "hotpath_rs_encode");
      for (const auto& d : datas) rs.EncodeInto(d, out);
    }
    {
      obs::ScopedWallTimer t(wall, "hotpath_rs_decode_clean");
      for (const auto& cw : clean) {
        if (!rs.DecodeInto(cw, &result)) std::abort();
      }
    }
    {
      obs::ScopedWallTimer t(wall, "hotpath_rs_decode_corrupt");
      for (const auto& cw : corrupt) {
        if (!rs.DecodeInto(cw, &result)) std::abort();
      }
    }
  }
}

void BenchChannelPhase(obs::WallTimerRegistry& wall, int reps) {
  constexpr double kErrProb = 0.002;  // the robustness grid's uniform point
  constexpr int kWords = 20000;
  const auto& rs = fec::ReedSolomon::Osu6448();
  Rng data_rng(21);
  const auto cw = rs.Encode(RandomData(rs.k(), data_rng));
  std::vector<GfElem> buf(cw.size());
  for (int r = 0; r < reps; ++r) {
    phy::UniformErrorModel model(kErrProb, 31);
    obs::ScopedWallTimer t(wall, "hotpath_channel_uniform");
    for (int i = 0; i < kWords; ++i) {
      buf = cw;
      model.Corrupt(buf);
    }
  }
}

exp::ScenarioSpec CycleSpec() {
  exp::ScenarioSpec spec;
  spec.name = "hotpath_cycle";
  spec.workload.rho = 0.8;
  spec.warmup_cycles = 20;
  spec.measure_cycles = 150;
  spec.seed = 2001;
  return spec;
}

void BenchCyclePhases(obs::WallTimerRegistry& wall, int reps) {
  for (int r = 0; r < reps; ++r) {
    {
      obs::ScopedWallTimer t(wall, "hotpath_cycle_untraced");
      exp::RunScenario(CycleSpec());
    }
    {
      obs::EventTrace trace;
      exp::RunHooks hooks;
      hooks.after_warmup = [&trace](mac::Cell& cell) { cell.AttachTrace(&trace); };
      obs::ScopedWallTimer t(wall, "hotpath_cycle_traced");
      exp::RunScenario(CycleSpec(), hooks);
    }
    {
      // Live profiler: every zone in the cycle pipeline records.  The gate
      // bounds what an *installed* profiler costs relative to the untraced
      // baseline; when built with -DOSUMAC_PROFILER=OFF the zones compile
      // out and this phase collapses onto the untraced one.
      obs::Profiler profiler;
      const obs::Profiler::ThreadScope scope(&profiler);
      obs::ScopedWallTimer t(wall, "hotpath_cycle_profiled");
      exp::RunScenario(CycleSpec());
    }
  }
}

/// Splices this run's phase lines into an existing BENCH_perf.json,
/// dropping any previous hotpath_* entries.  Relies on the exact
/// WriteWallTimersJson layout: one `    {"name": ...}` line per phase
/// between `  "phases": [` and `  ]`.
bool MergeInto(const std::string& path, const obs::WallTimerRegistry& wall,
               const std::string& provenance) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_hotpaths: cannot read %s\n", path.c_str());
    return false;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();

  std::ostringstream ours_stream;
  obs::WriteWallTimersJson(ours_stream, wall, provenance);
  std::vector<std::string> ours;
  {
    std::istringstream is(ours_stream.str());
    bool in_phases = false;
    for (std::string line; std::getline(is, line);) {
      if (line == "  \"phases\": [") {
        in_phases = true;
        continue;
      }
      if (line == "  ]") in_phases = false;
      if (in_phases) ours.push_back(line);
    }
  }

  std::vector<std::string> merged;
  bool in_phases = false;
  bool spliced = false;
  for (const std::string& line : lines) {
    if (line == "  \"phases\": [") in_phases = true;
    if (in_phases && line.find("\"name\": \"hotpath_") != std::string::npos) {
      continue;  // replace stale entries from a previous merge
    }
    if (in_phases && line == "  ]") {
      // Existing last phase line needs a trailing comma before our block.
      if (!merged.empty() && !ours.empty()) {
        std::string& prev = merged.back();
        if (!prev.empty() && prev.back() != ',' && prev.back() != '[') prev += ',';
      }
      for (std::size_t i = 0; i < ours.size(); ++i) {
        std::string entry = ours[i];
        if (!entry.empty() && entry.back() == ',') entry.pop_back();
        if (i + 1 < ours.size()) entry += ',';
        merged.push_back(entry);
      }
      in_phases = false;
      spliced = true;
    }
    merged.push_back(line);
  }
  if (!spliced) {
    std::fprintf(stderr, "bench_hotpaths: %s does not look like BENCH_perf.json\n",
                 path.c_str());
    return false;
  }
  std::ofstream out(path);
  for (const std::string& line : merged) out << line << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string merge_into;
  std::string out_path;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--merge-into" && i + 1 < argc) {
      merge_into = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpaths [--merge-into BENCH_perf.json] "
                   "[--out FILE] [--reps N]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  bench::PrintProvenance("bench_hotpaths", 0, "reps=" + std::to_string(reps));
  obs::WallTimerRegistry wall;
  BenchRsPhases(wall, reps);
  BenchChannelPhase(wall, reps);
  BenchCyclePhases(wall, reps);
  wall.Report(std::cout);

  const std::string provenance =
      obs::ProvenanceLine("bench_hotpaths", 0, "reps=" + std::to_string(reps));
  if (!merge_into.empty()) {
    if (!MergeInto(merge_into, wall, provenance)) return 1;
    std::printf("merged hotpath phases into %s\n", merge_into.c_str());
  } else if (!out_path.empty()) {
    std::ofstream out(out_path);
    obs::WriteWallTimersJson(out, wall, provenance);
    if (!out) {
      std::fprintf(stderr, "bench_hotpaths: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    obs::WriteWallTimersJson(std::cout, wall, provenance);
  }
  return 0;
}
