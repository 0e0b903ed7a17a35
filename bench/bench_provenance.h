// Run-provenance header for benches: every bench prints one line saying
// which build produced its numbers (git describe + build type) and with
// what seed/config, so results stay comparable across checkouts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "exp/runner.h"
#include "obs/provenance.h"

namespace osumac::bench {

/// Prints the one-line provenance header.  Call first thing in main().
inline void PrintProvenance(const char* tool, std::uint64_t seed = 0,
                            const std::string& config = "") {
  std::printf("%s\n", obs::ProvenanceLine(tool, seed, config).c_str());
}

/// The bench's --jobs value (default 1).  A malformed value is a usage
/// error: prints what is wrong and exits with status 1.
inline int JobsFlag(int argc, char** argv) {
  std::string error;
  const std::optional<int> jobs = exp::JobsFromArgs(argc, argv, 1, &error);
  if (!jobs.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(1);
  }
  return *jobs;
}

}  // namespace osumac::bench

/// Drop-in replacement for BENCHMARK_MAIN() that prints the provenance
/// header before running google-benchmark.
#define OSUMAC_BENCHMARK_MAIN(tool)                                     \
  int main(int argc, char** argv) {                                     \
    ::osumac::bench::PrintProvenance(tool);                             \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }
