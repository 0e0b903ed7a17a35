// Run-provenance header for benches: every bench prints one line saying
// which build produced its numbers (git describe + build type) and with
// what seed/config, so results stay comparable across checkouts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// The bench's --jobs value (default 1), its only argument.  A malformed
/// value or any other argument is a usage error: prints what is wrong and
/// exits with status 1 before anything runs.
inline int JobsFlag(int argc, char** argv) {
  std::string error;
  const std::optional<int> jobs = exp::JobsFromArgs(argc, argv, 1, &error);
  if (!jobs.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(1);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" || arg == "-j") {
      ++i;  // skip the value; JobsFromArgs has checked it
    } else if (arg.rfind("--jobs=", 0) != 0) {
      const char* slash = std::strrchr(argv[0], '/');
      std::fprintf(stderr, "error: unexpected argument '%s'\nusage: %s [--jobs N | -j N]\n",
                   arg.c_str(), slash != nullptr ? slash + 1 : argv[0]);
      std::exit(1);
    }
  }
  return *jobs;
}

}  // namespace osumac::bench
