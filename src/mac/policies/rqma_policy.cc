#include "mac/policies/rqma_policy.h"

#include <algorithm>
#include <cstdint>

namespace osumac::mac {
namespace {

constexpr int kRequestSlots = 4;         ///< slotted-ALOHA request slots
constexpr int kBacklogSlots = 8;         ///< most sessions open at once
constexpr std::int64_t kDeadlineFrames = 8;  ///< relative deadline, cycles
constexpr double kRequestRetryProb = 0.5;

bool HasDemand(const PolicyNodeView& v) {
  return v.backlog_packets > 0 || (v.gps && v.gps_report_pending);
}

}  // namespace

void RqmaPolicy::OnRegistration(int /*node*/, UserId /*uid*/, bool /*wants_gps*/) {
  // Sessions are established in-band through request slots, not at
  // registration time.
}

void RqmaPolicy::OnSignOff(int node, UserId /*uid*/) { sessions_.erase(node); }

PolicyCyclePlan RqmaPolicy::PlanCycle(std::int64_t cycle,
                                      const std::vector<PolicyNodeView>& nodes,
                                      Rng& rng) {
  PolicyCyclePlan plan;
  plan.carrier_formats = {ReverseFormat::kFormat2};
  const int data_slots = ReverseCycleLayout(ReverseFormat::kFormat2).data_slot_count();
  const int request_slots = std::min(kRequestSlots, data_slots - 1);

  // Sessions whose demand is gone release their backlog slot.  GPS
  // sessions always have a fresh report pending, so they persist — RQMA's
  // real-time sessions stay open for periodic sources.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const auto v = std::find_if(nodes.begin(), nodes.end(),
                                [&](const PolicyNodeView& n) { return n.node == *it; });
    if (v == nodes.end() || !HasDemand(*v)) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }

  // Real-time loss: packets older than the relative deadline are dropped
  // before scheduling (baseline: frame - arrival_frame > deadline_frames).
  const Tick drop_boundary =
      (cycle - kDeadlineFrames) * kCycleTicks - 1;
  if (drop_boundary >= 0) {
    for (const PolicyNodeView& v : nodes) {
      if (v.head_enqueue_tick >= 0 && v.head_enqueue_tick <= drop_boundary) {
        plan.drops.push_back(PolicyDrop{v.node, drop_boundary});
      }
    }
  }

  // Slotted-ALOHA session requests from sessionless stations with demand.
  std::vector<std::vector<int>> req_tx(static_cast<std::size_t>(request_slots));
  for (const PolicyNodeView& v : nodes) {
    if (sessions_.count(v.node) != 0 || !HasDemand(v)) continue;
    if (!rng.Bernoulli(kRequestRetryProb)) continue;
    req_tx[static_cast<std::size_t>(rng.UniformInt(0, request_slots - 1))]
        .push_back(v.node);
  }
  for (int s = 0; s < request_slots; ++s) {
    PolicySlotPlan p;
    p.slot = s;
    p.use = PolicySlotUse::kAccessRequest;
    p.owner = kNoUser;
    p.transmitters = std::move(req_tx[static_cast<std::size_t>(s)]);
    plan.slots.push_back(std::move(p));
  }

  // Grants: GPS-session reports first (each in a full data slot — RQMA has
  // no short-slot ranging), then strict EDF by head-of-line deadline.
  int next_slot = request_slots;
  for (const PolicyNodeView& v : nodes) {
    if (next_slot >= data_slots) break;
    if (sessions_.count(v.node) == 0 || !v.gps || !v.gps_report_pending) continue;
    PolicySlotPlan p;
    p.slot = next_slot++;
    p.use = PolicySlotUse::kGpsReport;
    p.owner = v.uid;
    p.transmitters = {v.node};
    plan.slots.push_back(std::move(p));
  }

  struct Candidate {
    Tick head;
    int node;
    UserId uid;
    int remaining;
  };
  std::vector<Candidate> cands;
  for (const PolicyNodeView& v : nodes) {
    if (sessions_.count(v.node) == 0 || v.backlog_packets <= 0) continue;
    cands.push_back(Candidate{v.head_enqueue_tick, v.node, v.uid, v.backlog_packets});
  }
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    return a.head != b.head ? a.head < b.head : a.node < b.node;
  });
  for (Candidate& c : cands) {
    while (c.remaining > 0 && next_slot < data_slots) {
      PolicySlotPlan p;
      p.slot = next_slot++;
      p.use = PolicySlotUse::kData;
      p.owner = c.uid;
      p.transmitters = {c.node};
      plan.slots.push_back(std::move(p));
      --c.remaining;
    }
  }

  return plan;
}

void RqmaPolicy::ResolveSlot(const PolicySlotPlan& plan,
                             const PolicySlotResult& result) {
  if (plan.use != PolicySlotUse::kAccessRequest) return;
  if (result.outcome != PolicySlotResult::Outcome::kDecoded || result.sender < 0) {
    return;
  }
  if (static_cast<int>(sessions_.size()) >= kBacklogSlots) return;
  sessions_.insert(result.sender);
}

}  // namespace osumac::mac
