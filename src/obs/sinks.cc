#include "obs/sinks.h"

#include <iomanip>
#include <limits>
#include <sstream>

namespace osumac::obs {

const char* SlotOutcomeCodeName(std::int64_t code) {
  switch (code) {
    case kOutcomeIdle:          return "idle";
    case kOutcomeCollision:     return "collision";
    case kOutcomeDecodeFailure: return "decode_failure";
    case kOutcomeDecoded:       return "decoded";
    default:                    return "unknown";
  }
}

const char* RegistrationCodeName(std::int64_t code) {
  switch (code) {
    case kRegApproved: return "approved";
    case kRegRegrant:  return "regrant";
    case kRegRejected: return "rejected";
    default:           return "unknown";
  }
}

const char* ContentionCodeName(std::int64_t code) {
  switch (code) {
    case kContendRegistration: return "registration";
    case kContendReservation:  return "reservation";
    case kContendData:         return "data";
    case kContendSignOff:      return "sign_off";
    case kContendForwardAck:   return "forward_ack";
    default:                   return "unknown";
  }
}

const char* ForwardLossCodeName(std::int64_t code) {
  switch (code) {
    case kLossNoActiveSubscriber: return "no_active_subscriber";
    case kLossNotExpected:        return "not_expected";
    case kLossRadioBusy:          return "radio_busy";
    case kLossDecodeFailure:      return "decode_failure";
    default:                      return "unknown";
  }
}

const char* LifecycleStageName(std::int64_t stage) {
  switch (stage) {
    case kStageGenerated:     return "generated";
    case kStageQueued:        return "queued";
    case kStageReservationTx: return "reservation_tx";
    case kStageGrantRx:       return "grant_rx";
    case kStageSlotTx:        return "slot_tx";
    case kStageDelivered:     return "delivered";
    case kStageAcked:         return "acked";
    case kStageRetry:         return "retry";
    case kStageErasure:       return "erasure";
    case kStageDropped:       return "dropped";
    default:                  return "unknown";
  }
}

const char* LifecycleDropCodeName(std::int64_t code) {
  switch (code) {
    case kDropSuperseded:    return "superseded";
    case kDropDecodeFailure: return "decode_failure";
    case kDropCollision:     return "collision";
    case kDropPowerOff:      return "power_off";
    default:                 return "unknown";
  }
}

const char* LifecycleClassName(std::int64_t cls) {
  switch (cls) {
    case kClassData: return "data";
    case kClassGps:  return "gps";
    default:         return "unknown";
  }
}

const char* ChannelName(Channel channel) {
  switch (channel) {
    case Channel::kForward: return "forward";
    case Channel::kReverse: return "reverse";
    case Channel::kNone:    return "-";
  }
  return "-";
}

namespace {

/// Simulated microseconds for Chrome timestamps (1 tick = 1/48000 s).
double TickToMicros(Tick t) { return static_cast<double>(t) * (1e6 / 48000.0); }

/// Chrome track (tid) layout: channels and the base station get fixed
/// tracks; each subscriber's radio gets its own.
constexpr int kTidForward = 1;
constexpr int kTidReverse = 2;
constexpr int kTidBaseStation = 3;
constexpr int kTidNodeBase = 10;

int TidFor(const Event& e) {
  if (e.kind == EventKind::kRadioTx || e.kind == EventKind::kRadioRx ||
      e.kind == EventKind::kCfMissed || e.kind == EventKind::kContend ||
      e.kind == EventKind::kRetransmit || e.kind == EventKind::kLifecycle) {
    return e.node >= 0 ? kTidNodeBase + e.node : kTidBaseStation;
  }
  switch (e.channel) {
    case Channel::kForward: return kTidForward;
    case Channel::kReverse: return kTidReverse;
    case Channel::kNone:    return kTidBaseStation;
  }
  return kTidBaseStation;
}

/// Display name of one event, specialised enough that a Perfetto track
/// reads like a protocol narrative.
std::string DisplayName(const Event& e) {
  std::ostringstream name;
  name << EventKindName(e.kind);
  switch (e.kind) {
    case EventKind::kSlotResolved:
      name << (e.a3 != 0 ? " gps" : " data") << ' ' << e.slot << ' '
           << SlotOutcomeCodeName(e.a0);
      break;
    case EventKind::kCycleStart:
      name << ' ' << e.cycle;
      break;
    case EventKind::kCfDelivered:
      name.str(e.a0 != 0 ? "CF2" : "CF1");
      break;
    case EventKind::kBurstTx:
      name << (e.a0 != 0 ? " gps" : " data") << ' ' << e.slot;
      break;
    case EventKind::kRegistration:
      name << ' ' << RegistrationCodeName(e.a0);
      break;
    case EventKind::kContend:
      name << ' ' << ContentionCodeName(e.a0);
      break;
    case EventKind::kForwardLoss:
      name << ' ' << ForwardLossCodeName(e.a0);
      break;
    case EventKind::kLifecycle:
      name << ' ' << LifecycleClassName(e.a3) << ' ' << LifecycleStageName(e.a0);
      if (e.a0 == kStageDropped) name << ' ' << LifecycleDropCodeName(e.a2);
      break;
    case EventKind::kGpsSlotShift:
      name << ' ' << e.a0 << "->" << e.a1;
      break;
    default:
      break;
  }
  return name.str();
}

void WriteArgs(std::ostream& out, const Event& e) {
  out << "{\"cycle\":" << e.cycle << ",\"tick\":" << e.tick;
  if (e.node >= 0) out << ",\"node\":" << e.node;
  if (e.uid >= 0) out << ",\"uid\":" << e.uid;
  if (e.slot >= 0) out << ",\"slot\":" << e.slot;
  out << ",\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << ",\"a2\":" << e.a2
      << ",\"a3\":" << e.a3 << "}";
}

void WriteMetadataEvent(std::ostream& out, int tid, const std::string& name) {
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
      << ",\"args\":{\"name\":\"" << name << "\"}},\n";
}

}  // namespace

void WriteChromeTrace(std::ostream& out, const EventTrace& trace,
                      const std::string& provenance) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"traceEvents\":[\n";
  WriteMetadataEvent(out, kTidForward, "forward channel");
  WriteMetadataEvent(out, kTidReverse, "reverse channel");
  WriteMetadataEvent(out, kTidBaseStation, "base station");
  // Name a radio track for every node seen in the trace.
  std::int32_t max_node = -1;
  trace.ForEach([&max_node](const Event& e) {
    if (e.node > max_node) max_node = e.node;
  });
  for (std::int32_t n = 0; n <= max_node; ++n) {
    WriteMetadataEvent(out, kTidNodeBase + n, "node " + std::to_string(n) + " radio");
  }

  bool first = true;
  trace.ForEach([&out, &first](const Event& e) {
    if (!first) out << ",\n";
    first = false;
    if (e.kind == EventKind::kLifecycle) {
      // Async span: one "b"(egin) at kStageGenerated, "n" instants for
      // intermediate stages, one "e"(nd) at the class's terminal stage.
      // Begin/end share the name "lifecycle" (Chrome pairs b/e by
      // cat+id+name); intermediate instants carry the stage for display.
      const char* ph = e.a0 == kStageGenerated                ? "b"
                       : LifecycleStageTerminal(e.a0, e.a3)   ? "e"
                                                              : "n";
      std::string name = "lifecycle";
      if (*ph == 'n') name += std::string(" ") + LifecycleStageName(e.a0);
      out << "{\"name\":\"" << name << "\",\"cat\":\"lifecycle\",\"pid\":0"
          << ",\"tid\":" << TidFor(e) << ",\"ph\":\"" << ph << "\",\"id\":\""
          << std::hex << e.a1 << std::dec << "\",\"ts\":"
          << TickToMicros(e.tick) << ",\"args\":";
      WriteArgs(out, e);
      out << "}";
      return;
    }
    const bool has_span = !e.span.empty();
    out << "{\"name\":\"" << DisplayName(e) << "\",\"cat\":\""
        << ChannelName(e.channel) << "\",\"pid\":0,\"tid\":" << TidFor(e);
    if (has_span) {
      out << ",\"ph\":\"X\",\"ts\":" << TickToMicros(e.span.begin)
          << ",\"dur\":" << TickToMicros(e.span.length());
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TickToMicros(e.tick);
    }
    out << ",\"args\":";
    WriteArgs(out, e);
    out << "}";
  });
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
      << trace.dropped() << ",\"recorded\":" << trace.recorded()
      << ",\"provenance\":\"" << provenance << "\"}}\n";
}

void WriteJsonl(std::ostream& out, const EventTrace& trace) {
  trace.ForEach([&out](const Event& e) {
    out << "{\"tick\":" << e.tick << ",\"cycle\":" << e.cycle << ",\"kind\":\""
        << EventKindName(e.kind) << "\",\"channel\":\"" << ChannelName(e.channel)
        << "\",\"node\":" << e.node << ",\"uid\":" << e.uid
        << ",\"slot\":" << e.slot << ",\"begin\":" << e.span.begin
        << ",\"end\":" << e.span.end << ",\"a0\":" << e.a0 << ",\"a1\":" << e.a1
        << ",\"a2\":" << e.a2 << ",\"a3\":" << e.a3 << "}\n";
  });
}

}  // namespace osumac::obs
