#include "mac/substrate.h"

#include "common/check.h"
#include "phy/phy_params.h"

namespace osumac::mac {

std::unique_ptr<phy::SymbolErrorModel> ChannelModelConfig::Make(std::uint64_t seed) const {
  switch (kind) {
    case Kind::kPerfect:
      break;
    case Kind::kUniform:
      return std::make_unique<phy::UniformErrorModel>(symbol_error_prob, seed);
    case Kind::kGilbertElliott:
      return std::make_unique<phy::GilbertElliottModel>(ge, seed);
  }
  return std::make_unique<phy::PerfectChannel>();
}

CellSubstrate::CellSubstrate(const CellConfig& config)
    : config_(config),
      self_(sim_.AddTarget(this)),
      rng_(config.seed),
      data_code_(fec::ReedSolomon::Osu6448()),
      gps_code_(fec::ReedSolomon::Osu329()) {}

void CellSubstrate::AddNodeState(int node, bool wants_gps) {
  const auto channel_seed = [this, node](std::uint64_t direction) {
    return SplitMix64(config_.seed +
                      kSplitMix64Gamma * (100 + 2 * static_cast<std::uint64_t>(node) +
                                          direction));
  };
  forward_models_.push_back(config_.forward.Make(channel_seed(0)));
  reverse_models_.push_back(config_.reverse.Make(channel_seed(1)));
  gps_phase_.push_back(wants_gps ? rng_.UniformInt(0, kCycleTicks - 1) : 0);
}

void CellSubstrate::RunCyclesOn(int cycles) {
  OSUMAC_CHECK_GE(cycles, 0);
  if (target_cycle_ == 0 && cycles > 0) ScheduleAt(0, kStartCycle);
  target_cycle_ += cycles;
  sim_.RunUntil(target_cycle_ * kCycleTicks - 1);
}

void CellSubstrate::TransmitBurst(phy::ReverseChannel& channel, int sender,
                                  Interval on_air, const fec::ReedSolomon& code,
                                  std::span<const fec::GfElem> info, std::uint64_t tag) {
  code.EncodeInto(info, channel.TransmitWord(on_air, sender, tag, code.n()));
}

const phy::SlotReception& CellSubstrate::ResolveReverseSlot(
    phy::ReverseChannel& channel, Interval abs, const fec::ReedSolomon& code) {
  channel.ResolveSlotPerSenderInto(
      abs, code,
      [this](int sender) -> phy::SymbolErrorModel& { return ReverseModelFor(sender); },
      rng_, channel_scratch_, slot_reception_, config_.erasure_side_information);
  return slot_reception_;
}

void CellSubstrate::RecordUplinkDelivery(UserId src, std::int64_t payload_bytes) {
  metrics_.unique_payload_bytes += payload_bytes;
  metrics_.per_user_bytes[src] += payload_bytes;
}

void CellSubstrate::ObserveGpsDelivery(int node, Tick at) {
  const auto [it, first_fix] = last_gps_delivery_.emplace(node, at);
  if (first_fix) return;
  slo_.Observe(obs::SloClass::kGpsDeliveryGap, ToSeconds(at - it->second));
  it->second = at;
}

void CellSubstrate::ResetSubstrateStats() {
  metrics_ = CellMetrics{};
  slo_.Reset();
  last_gps_delivery_.clear();
}

void CellSubstrate::AppendJournalRecord(std::int64_t n, std::uint64_t slot_grid,
                                        std::uint64_t queues, std::uint64_t counters) {
  obs::JournalRecord rec;
  rec.cycle = n;
  rec.slot_grid = slot_grid;
  rec.queues = queues;
  rec.counters = counters;
  rec.slo = JournalHashSlo();
  // The event component is the finished fingerprint of cycle n-1 (latched
  // by EventTrace::SetCycle at the cycle start); 0 in untraced runs, so
  // traced and untraced journals are comparable only with each other.
  rec.events = trace_ != nullptr ? trace_->last_cycle_fingerprint() : 0;
  journal_->Append(rec);
}

std::uint64_t CellSubstrate::JournalHashSlo() const {
  obs::Digest64 d;
  for (int c = 0; c < obs::kSloClassCount; ++c) {
    const auto cls = static_cast<obs::SloClass>(c);
    d.MixSigned(slo_.misses(cls));
    d.MixSigned(slo_.near_misses(cls));
    const obs::LogHistogram& h = slo_.histogram(cls);
    d.MixSigned(h.count());
    d.MixDouble(h.max_seen());
    d.Mix(h.bucket_digest());
  }
  return d.value();
}

std::uint64_t CellSubstrate::JournalHashMetrics() const {
  obs::Digest64 d;
  d.MixSigned(metrics_.cycles);
  d.MixSigned(metrics_.capacity_bytes);
  d.MixSigned(metrics_.unique_payload_bytes);
  d.MixSigned(metrics_.offered_bytes);
  d.MixSigned(metrics_.uplink_messages_offered);
  d.MixSigned(metrics_.forward_packets_lost);
  for (const auto& [uid, bytes] : metrics_.per_user_bytes) {
    d.MixSigned(uid);
    d.MixSigned(bytes);
  }
  // Delay samples are journaled by count only: hashing every retained
  // sample would make the hook O(run length), and a diverging delay value
  // always co-occurs with diverging counters or event fingerprints.
  d.Mix(static_cast<std::uint64_t>(metrics_.downlink_message_delay_cycles.size()));
  return d.value();
}

}  // namespace osumac::mac
