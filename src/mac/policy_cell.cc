#include "mac/policy_cell.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "mac/packet.h"
#include "obs/profiler.h"

namespace osumac::mac {

PolicyCell::PolicyCell(const CellConfig& config, std::unique_ptr<MacPolicy> policy,
                       std::uint64_t policy_seed)
    : CellSubstrate(config), policy_(std::move(policy)), policy_rng_(policy_seed) {
  OSUMAC_CHECK(policy_ != nullptr &&
               "PolicyCell needs a grid policy; the OSU tenant runs on mac::Cell");
}

int PolicyCell::AddNode(bool wants_gps) {
  const int node = static_cast<int>(nodes_.size());
  OSUMAC_CHECK(node < kMaxActiveUsers && "user-ID space exhausted");
  AddNodeState(node, wants_gps);
  Node n;
  n.uid = static_cast<UserId>(node);
  n.gps = wants_gps;
  n.active = true;
  nodes_.push_back(std::move(n));
  policy_->OnRegistration(node, nodes_.back().uid, wants_gps);
  return node;
}

void PolicyCell::SignOff(int node) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!n.active) return;
  policy_->OnSignOff(node, n.uid);
  n.active = false;
  for (const Fragment& f : n.queue) open_messages_.erase(f.message_id);
  n.queue.clear();
  ForgetGpsDelivery(node);
}

bool PolicyCell::SendUplinkMessage(int node, int bytes) {
  metrics_.offered_bytes += bytes;
  ++metrics_.uplink_messages_offered;
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!n.active) return false;
  const int frags = (bytes + kPacketPayloadBytes - 1) / kPacketPayloadBytes;
  OSUMAC_CHECK(frags >= 1 && frags <= 255);
  if (static_cast<int>(n.queue.size()) + frags > config_.mac.subscriber_queue_packets) {
    return false;
  }
  const std::uint32_t id = next_message_id_++;
  int remaining = bytes;
  for (int i = 0; i < frags; ++i) {
    Fragment f;
    f.message_id = id;
    f.frag_index = static_cast<std::uint8_t>(i);
    f.frag_count = static_cast<std::uint8_t>(frags);
    f.payload_bytes = static_cast<std::uint16_t>(std::min(kPacketPayloadBytes, remaining));
    remaining -= f.payload_bytes;
    f.enqueue = sim_.now();
    n.queue.push_back(f);
  }
  open_messages_[id] = MessageTrack{frags, sim_.now()};
  return true;
}

void PolicyCell::ResetStats() {
  counters_ = PolicyCounters{};
  ResetSubstrateStats();
  packet_delay_cycles_ = SampleSet{};
  message_delay_cycles_ = SampleSet{};
}

Tick PolicyCell::FreshestFixAt(int node, Tick t) const {
  const Tick phase = gps_phase_[static_cast<std::size_t>(node)];
  if (t < phase) return -1;
  return ((t - phase) / kCycleTicks) * kCycleTicks + phase;
}

const phy::ReverseChannel& PolicyCell::carrier_channel(int carrier) const {
  if (carrier == 0) return reverse_channel_;
  OSUMAC_CHECK(carrier >= 1 && carrier < carrier_count());
  return *extra_carriers_[static_cast<std::size_t>(carrier) - 1];
}

phy::ReverseChannel& PolicyCell::Carrier(int carrier) {
  if (carrier == 0) return reverse_channel_;
  const std::size_t idx = static_cast<std::size_t>(carrier) - 1;
  while (extra_carriers_.size() <= idx) {
    extra_carriers_.push_back(std::make_unique<phy::ReverseChannel>());
  }
  return *extra_carriers_[idx];
}

Interval PolicyCell::SlotInterval(const PolicyCyclePlan& plan, const PolicySlotPlan& s,
                                  Tick T) {
  const ReverseCycleLayout layout(
      plan.carrier_formats[static_cast<std::size_t>(s.carrier)]);
  const Interval rel = s.short_slot ? layout.GpsSlot(s.slot) : layout.DataSlot(s.slot);
  return {T + rel.begin, T + rel.end};
}

void PolicyCell::StartCycle(std::int64_t n) {
  OSUMAC_PROFILE_ZONE("policy.plan");
  const Tick T = n * kCycleTicks;
  OSUMAC_CHECK_EQ(sim_.now(), T);

  // Records of bursts lost to collisions / decode failures (whose tags
  // never come back from the channel) are dropped once their cycle — plus
  // the deferred last slot that resolves one cycle later — is over.
  std::erase_if(tx_records_,
                [n](const auto& kv) { return kv.second.cycle + 2 <= n; });

  std::vector<PolicyNodeView> views;
  for (int node = 0; node < node_count(); ++node) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    if (!nd.active) continue;
    PolicyNodeView v;
    v.node = node;
    v.uid = nd.uid;
    v.gps = nd.gps;
    v.backlog_packets = static_cast<int>(nd.queue.size());
    v.head_enqueue_tick = nd.queue.empty() ? -1 : nd.queue.front().enqueue;
    // A fresh fix arrives every cycle at the node's phase, so an active
    // GPS node always has a report worth a slot (mirrors the OSU driver's
    // one-report-per-cycle generation).
    v.gps_report_pending = nd.gps;
    views.push_back(v);
  }

  std::swap(prev_plan_, plan_);
  plan_ = policy_->PlanCycle(n, views, policy_rng_);
  OSUMAC_CHECK(plan_.carriers() >= 1);

  for (const PolicyDrop& d : plan_.drops) {
    Node& nd = nodes_[static_cast<std::size_t>(d.node)];
    while (!nd.queue.empty() && nd.queue.front().enqueue <= d.enqueued_at_or_before) {
      open_messages_.erase(nd.queue.front().message_id);
      nd.queue.pop_front();
      ++counters_.deadline_drops;
    }
  }

  ++metrics_.cycles;
  for (const ReverseFormat f : plan_.carrier_formats) {
    metrics_.capacity_bytes +=
        static_cast<std::int64_t>(ReverseCycleLayout(f).data_slot_count()) *
        kPacketPayloadBytes;
  }
  for (const PolicySlotPlan& s : plan_.slots) {
    if (s.short_slot) continue;
    if (s.owner == kNoUser) {
      ++counters_.contention_slots;
    } else {
      ++counters_.granted_slots;
    }
  }

  TransmitPlanned(n, T);
  if (journal_ != nullptr && journal_->ShouldRecord(n)) JournalCycle(n);
  for (PolicyCellObserver* o : observers_) o->OnCyclePlanned(*this, plan_, n, sim_.now());

  // A slot ending after the cycle (the last data slot, same deferral as the
  // OSU driver) resolves once the next StartCycle has moved plan_ to
  // prev_plan_; one ending exactly at the boundary fires before it.
  for (std::size_t i = 0; i < plan_.slots.size(); ++i) {
    const Tick end = SlotInterval(plan_, plan_.slots[i], T).end;
    ScheduleAt(end, end > T + kCycleTicks ? kDeferredSlot : kSlot,
               static_cast<std::int32_t>(i));
  }

  next_cycle_ = n + 1;
  ScheduleAt(T + kCycleTicks, kStartCycle);
}

void PolicyCell::Fire(const sim::Event& event) {
  if (event.kind == kStartCycle) return StartCycle(event.when / kCycleTicks);
  OSUMAC_CHECK(event.kind == kSlot || event.kind == kDeferredSlot);
  const PolicyCyclePlan& plan = event.kind == kDeferredSlot ? prev_plan_ : plan_;
  const PolicySlotPlan& s = plan.slots[static_cast<std::size_t>(event.index)];
  ResolveSlot(s, EndingAt(event.when, SlotInterval(plan, s, /*T=*/0)));
}

void PolicyCell::JournalCycle(std::int64_t n) {
  // Slot grid: the plan the policy just fixed — per-carrier formats and
  // every planned slot with its owner and directed transmitters.
  obs::Digest64 grid;
  for (const ReverseFormat f : plan_.carrier_formats) {
    grid.Mix(static_cast<std::uint64_t>(f));
  }
  for (const PolicySlotPlan& s : plan_.slots) {
    grid.MixSigned(s.slot);
    grid.Mix(s.short_slot ? 1u : 0u);
    grid.Mix(static_cast<std::uint64_t>(s.use));
    grid.MixSigned(s.owner);
    grid.MixSigned(s.carrier);
    for (const int t : s.transmitters) grid.MixSigned(t);
  }

  // Queues: per-node registration/backlog state plus the open-message and
  // in-flight-burst trackers.
  obs::Digest64 q;
  for (const Node& nd : nodes_) {
    q.MixSigned(nd.uid);
    q.Mix(nd.active ? 1u : 0u);
    q.Mix(static_cast<std::uint64_t>(nd.queue.size()));
    q.MixSigned(nd.queue.empty() ? -1 : nd.queue.front().enqueue);
  }
  q.Mix(static_cast<std::uint64_t>(open_messages_.size()));
  q.Mix(static_cast<std::uint64_t>(tx_records_.size()));

  // Counters: the driver ledger plus the substrate aggregates.
  obs::Digest64 c;
  c.Mix(KeyedLedgerSum(kPolicyCounterFields, counters_));
  c.Mix(static_cast<std::uint64_t>(packet_delay_cycles_.size()));
  c.Mix(static_cast<std::uint64_t>(message_delay_cycles_.size()));
  c.Mix(JournalHashMetrics());
  AppendJournalRecord(n, grid.value(), q.value(), c.value());
}

void PolicyCell::TransmitPlanned(std::int64_t n, Tick T) {
  // k-th data grant of a node this cycle carries its k-th queued fragment.
  std::vector<int> tx_cursor(nodes_.size(), 0);
  for (const PolicySlotPlan& s : plan_.slots) {
    const Interval abs = SlotInterval(plan_, s, T);
    const fec::ReedSolomon& code = s.short_slot ? gps_code_ : data_code_;
    for (const int node : s.transmitters) {
      Node& nd = nodes_[static_cast<std::size_t>(node)];
      if (!nd.active) continue;
      TxRecord rec;
      rec.node = node;
      rec.cycle = n;
      InfoBlock info;
      if (s.use == PolicySlotUse::kGpsReport) {
        const Tick fix = FreshestFixAt(node, abs.begin);
        if (fix < 0) continue;  // no fix yet: the slot stays silent
        rec.gps_report = true;
        rec.fix_ready = fix;
        // Access delay: fix ready -> slot TX begin, same class and feeding
        // point as the OSU subscriber.
        slo_.Observe(obs::SloClass::kGpsAccess, ToSeconds(abs.begin - fix));
        GpsPacket report;
        report.ein = static_cast<Ein>(1000 + node);
        report.timestamp = static_cast<std::uint8_t>(n & 0xFF);
        if (s.short_slot) {
          info = SerializeGpsPacket(report);
        } else {
          // A report granted a full data slot (RQMA) rides in a regular
          // packet; the driver's tag bookkeeping carries the semantics.
          DataPacket p;
          p.header.src = nd.uid;
          p.payload_bytes = 9;
          info = SerializeDataPacket(p);
        }
      } else if (s.use == PolicySlotUse::kAccessRequest) {
        rec.request = true;
        ReservationPacket req;
        req.src = nd.uid;
        req.slots_requested = static_cast<std::uint8_t>(
            std::min<std::size_t>(31, nd.queue.size()));
        info = SerializeReservationPacket(req);
      } else {
        const int idx = tx_cursor[static_cast<std::size_t>(node)]++;
        if (idx >= static_cast<int>(nd.queue.size())) continue;  // grant unused
        const Fragment& f = nd.queue[static_cast<std::size_t>(idx)];
        rec.fragment = f;
        DataPacket p;
        p.header.src = nd.uid;
        p.header.frag_index = f.frag_index;
        p.message_id = f.message_id;
        p.frag_count = f.frag_count;
        p.payload_bytes = f.payload_bytes;
        info = SerializeDataPacket(p);
      }
      const std::uint64_t tag = next_tag_++;
      tx_records_.emplace(tag, rec);
      TransmitBurst(Carrier(s.carrier), node, abs, code, info, tag);
    }
  }
}

void PolicyCell::ResolveSlot(const PolicySlotPlan& s, Interval abs) {
  OSUMAC_PROFILE_ZONE("policy.slot");
  const fec::ReedSolomon& code = s.short_slot ? gps_code_ : data_code_;
  const phy::SlotReception& reception = ResolveReverseSlot(Carrier(s.carrier), abs, code);

  PolicySlotResult result;
  result.sender = reception.sender;
  result.colliders = reception.colliders;
  switch (reception.outcome) {
    case phy::SlotOutcome::kIdle:
      result.outcome = PolicySlotResult::Outcome::kIdle;
      ++counters_.idle_slots;
      break;
    case phy::SlotOutcome::kCollision:
      result.outcome = PolicySlotResult::Outcome::kCollision;
      ++counters_.collisions;
      break;
    case phy::SlotOutcome::kDecodeFailure:
      result.outcome = PolicySlotResult::Outcome::kDecodeFailure;
      ++counters_.decode_failures;
      tx_records_.erase(reception.tag);
      break;
    case phy::SlotOutcome::kDecoded: {
      result.outcome = PolicySlotResult::Outcome::kDecoded;
      const auto it = tx_records_.find(reception.tag);
      if (it != tx_records_.end()) {
        const TxRecord rec = it->second;
        tx_records_.erase(it);
        Node& nd = nodes_[static_cast<std::size_t>(rec.node)];
        if (rec.gps_report) {
          ++counters_.gps_packets_received;
          nd.last_delivered_fix = std::max(nd.last_delivered_fix, rec.fix_ready);
          ObserveGpsDelivery(rec.node, abs.end);
        } else if (rec.request) {
          ++counters_.request_packets_received;
        } else {
          ++counters_.data_packets_received;
          counters_.payload_bytes_received += rec.fragment.payload_bytes;
          result.payload_bytes = rec.fragment.payload_bytes;
          RecordUplinkDelivery(nd.uid, rec.fragment.payload_bytes);
          packet_delay_cycles_.Add(ToSeconds(abs.end - rec.fragment.enqueue) /
                                   ToSeconds(kCycleTicks));
          slo_.Observe(obs::SloClass::kDataAccess,
                       ToSeconds(abs.begin - rec.fragment.enqueue));
          for (auto qit = nd.queue.begin(); qit != nd.queue.end(); ++qit) {
            if (qit->message_id == rec.fragment.message_id &&
                qit->frag_index == rec.fragment.frag_index) {
              nd.queue.erase(qit);
              break;
            }
          }
          const auto mit = open_messages_.find(rec.fragment.message_id);
          if (mit != open_messages_.end() && --mit->second.remaining == 0) {
            message_delay_cycles_.Add(ToSeconds(abs.end - mit->second.enqueue) /
                                      ToSeconds(kCycleTicks));
            ++counters_.messages_completed;
            open_messages_.erase(mit);
          }
        }
      }
      break;
    }
  }

  policy_->ResolveSlot(s, result);
  for (PolicyCellObserver* o : observers_) {
    o->OnSlotResolved(*this, s, result, abs, sim_.now());
  }
}

}  // namespace osumac::mac
