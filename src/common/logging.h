// Minimal stderr logging for simulator internals: check failures and audit
// reports.  Protocol activity is recorded as structured trace events
// (obs/event_trace.h), not as log lines.
#pragma once

#include <string>

#include "common/time.h"

namespace osumac {

/// Emits "[   12.3456s t=593100] tag: message" to stderr.  The raw tick rides
/// along because %.4f seconds alone loses tick precision at long horizons
/// (1 tick = 1/48000 s ~ 0.00002 s).
void LogAlways(Tick now, const char* tag, const std::string& message);

}  // namespace osumac
