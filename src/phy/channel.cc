#include "phy/channel.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/profiler.h"

namespace osumac::phy {

bool ApplyChannelInto(const std::vector<std::vector<fec::GfElem>>& codewords,
                      const fec::ReedSolomon& code, SymbolErrorModel& model, Rng&,
                      ChannelScratch& scratch,
                      std::vector<std::vector<fec::GfElem>>& decoded,
                      int* errors_corrected_out, bool use_erasure_side_info) {
  decoded.resize(codewords.size());
  for (std::size_t w = 0; w < codewords.size(); ++w) {
    const auto& cw = codewords[w];
    scratch.noisy.assign(cw.begin(), cw.end());
    scratch.erasures.clear();
    const int hits = use_erasure_side_info
                         ? model.CorruptWithSideInfo(scratch.noisy, &scratch.erasures)
                         : model.Corrupt(scratch.noisy);
    if (hits == 0 && scratch.erasures.empty()) {
      // Untouched word: it is the codeword we put on the air, so decoding
      // can only succeed with zero corrections.  Skip the decoder (and
      // even its syndrome pass) and hand back the systematic prefix.
      decoded[w].assign(cw.begin(), cw.begin() + code.k());
      continue;
    }
    bool ok = false;
    // Filling f erasures leaves n-k-f budget for unknown errors (2e <=
    // n-k-f).  Using all n-k flags would leave zero redundancy: ANY fill
    // then forms a valid codeword and an unflagged error produces a
    // *silently wrong* decode.  With one parity symbol spared (f <=
    // n-k-1) the post-decode syndrome recheck still detects a bad fill,
    // so long fades degrade into honest failures; beyond that the
    // receiver falls back to errors-only decoding.
    const std::size_t cap = static_cast<std::size_t>(code.n() - code.k() - 1);
    if (scratch.erasures.size() <= cap) {
      ok = code.DecodeWithErasuresInto(scratch.noisy, scratch.erasures, &scratch.decode);
    } else {
      ok = code.DecodeInto(scratch.noisy, &scratch.decode);
    }
    if (!ok) return false;
    if (errors_corrected_out != nullptr) {
      *errors_corrected_out += scratch.decode.errors_corrected;
    }
    decoded[w].assign(scratch.decode.data.begin(), scratch.decode.data.end());
  }
  return true;
}

CodedBurst& ReverseChannel::PutOnAir(Interval on_air, int sender, std::uint64_t tag) {
  CodedBurst& burst = pending_.emplace_back();
  burst.on_air = on_air;
  burst.sender = sender;
  burst.tag = tag;
  if (!spare_codewords_.empty()) {
    burst.codewords = std::move(spare_codewords_.back());
    spare_codewords_.pop_back();
  }
  return burst;
}

void ReverseChannel::Transmit(CodedBurst burst) {
  CodedBurst& on_air = PutOnAir(burst.on_air, burst.sender, burst.tag);
  on_air.codewords.resize(burst.codewords.size());
  for (std::size_t w = 0; w < burst.codewords.size(); ++w) {
    on_air.codewords[w].assign(burst.codewords[w].begin(), burst.codewords[w].end());
  }
}

std::span<fec::GfElem> ReverseChannel::TransmitWord(Interval on_air, int sender,
                                                    std::uint64_t tag, int n) {
  CodedBurst& burst = PutOnAir(on_air, sender, tag);
  burst.codewords.resize(1);
  burst.codewords[0].resize(static_cast<std::size_t>(n));
  return burst.codewords[0];
}

void ReverseChannel::CollectInto(Interval slot, std::vector<CodedBurst>& hits) {
  for (CodedBurst& resolved : hits) spare_codewords_.push_back(std::move(resolved.codewords));
  hits.clear();
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->on_air.Overlaps(slot)) {
      hits.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReverseChannel::ResolveSlotPerSenderInto(
    Interval slot, const fec::ReedSolomon& code,
    const std::function<SymbolErrorModel&(int sender)>& model_for, Rng& rng,
    ChannelScratch& scratch, SlotReception& out, bool use_erasure_side_info) {
  OSUMAC_PROFILE_ZONE("phy.channel");
  CollectInto(slot, collected_);
  out.outcome = SlotOutcome::kIdle;
  out.sender = -1;
  out.tag = 0;
  out.errors_corrected = 0;
  out.colliders.clear();
  if (collected_.empty()) return;
  if (collected_.size() > 1) {
    // Any mutual overlap destroys everything involved; with slot-aligned
    // transmissions all bursts in one slot overlap pairwise.
    out.outcome = SlotOutcome::kCollision;
    for (const CodedBurst& b : collected_) out.colliders.push_back(b.sender);
    std::sort(out.colliders.begin(), out.colliders.end());
    return;
  }

  const CodedBurst& burst = collected_.front();
  out.sender = burst.sender;
  out.tag = burst.tag;
  int corrected = 0;
  if (!ApplyChannelInto(burst.codewords, code, model_for(burst.sender), rng, scratch,
                        out.info, &corrected, use_erasure_side_info)) {
    out.outcome = SlotOutcome::kDecodeFailure;
    return;
  }
  out.outcome = SlotOutcome::kDecoded;
  out.errors_corrected = corrected;
}

}  // namespace osumac::phy
