// Trace export sinks: Chrome trace-event JSON (loads in Perfetto /
// chrome://tracing; what osumac_sim --trace writes) and JSONL (one event
// per line, exact integer ticks; the flight recorder's events.jsonl).
//
// Both consume a recorded EventTrace; neither mutates it.  See
// docs/OBSERVABILITY.md for the schemas and a Perfetto walkthrough.
#pragma once

#include <ostream>
#include <string>

#include "obs/event_trace.h"

namespace osumac::obs {

/// Names for the enum payloads, shared by every sink.
const char* SlotOutcomeCodeName(std::int64_t code);
const char* RegistrationCodeName(std::int64_t code);
const char* ContentionCodeName(std::int64_t code);
const char* ForwardLossCodeName(std::int64_t code);
const char* LifecycleStageName(std::int64_t stage);
const char* LifecycleDropCodeName(std::int64_t code);
const char* LifecycleClassName(std::int64_t cls);
const char* ChannelName(Channel channel);

/// Chrome trace-event JSON.  Events with airtime become complete ("X")
/// spans on per-channel tracks; the rest become instants ("i") on a
/// base-station or per-node track.  kLifecycle events become async spans
/// ("b"/"n"/"e", cat "lifecycle", id = lifecycle id) so Perfetto draws one
/// arc per packet from generation to its terminal stage.  Timestamps are
/// microseconds of simulated time.  `provenance` lands in otherData for
/// attribution.
void WriteChromeTrace(std::ostream& out, const EventTrace& trace,
                      const std::string& provenance = "");

/// One JSON object per line, all times in exact integer ticks.
void WriteJsonl(std::ostream& out, const EventTrace& trace);

}  // namespace osumac::obs
