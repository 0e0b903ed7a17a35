#include "common/logging.h"

#include <cstdio>

namespace osumac {

void LogAlways(Tick now, const char* tag, const std::string& message) {
  std::fprintf(stderr, "[%10.4fs t=%lld] %s: %s\n", ToSeconds(now),
               static_cast<long long>(now), tag, message.c_str());
}

}  // namespace osumac
