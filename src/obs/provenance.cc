#include "obs/provenance.h"

#include <sstream>

#include "build_version.h"  // OSUMAC_GIT_DESCRIBE, generated at build time

#ifndef OSUMAC_BUILD_TYPE
#define OSUMAC_BUILD_TYPE "unknown"
#endif

namespace osumac::obs {

const char* BuildVersion() { return OSUMAC_GIT_DESCRIBE; }

const char* BuildType() { return OSUMAC_BUILD_TYPE; }

std::string ProvenanceLine(const std::string& tool, std::uint64_t seed,
                           const std::string& config) {
  std::ostringstream line;
  line << "# osumac " << tool << " version=" << BuildVersion()
       << " build=" << BuildType() << " seed=" << seed;
  if (!config.empty()) line << ' ' << config;
  return line.str();
}

}  // namespace osumac::obs
