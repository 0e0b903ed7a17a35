#include "mac/policies/pca_policy.h"

#include <algorithm>

namespace osumac::mac {

void PcaPolicy::OnRegistration(int node, UserId /*uid*/, bool wants_gps) {
  if (wants_gps) gps_order_.push_back(node);
}

void PcaPolicy::OnSignOff(int node, UserId /*uid*/) {
  std::erase(gps_order_, node);
}

PolicyCyclePlan PcaPolicy::PlanCycle(std::int64_t /*cycle*/,
                                     const std::vector<PolicyNodeView>& nodes,
                                     Rng& /*rng*/) {
  PolicyCyclePlan plan;

  const auto view_of = [&nodes](int node) -> const PolicyNodeView* {
    const auto it = std::find_if(
        nodes.begin(), nodes.end(),
        [node](const PolicyNodeView& v) { return v.node == node; });
    return it == nodes.end() ? nullptr : &*it;
  };

  // GPS TDMA prefix on carrier 0, format sized to the active GPS count.
  std::vector<const PolicyNodeView*> gps_active;
  for (const int node : gps_order_) {
    if (const PolicyNodeView* v = view_of(node)) gps_active.push_back(v);
  }
  const ReverseFormat format0 =
      FormatForGpsCount(static_cast<int>(gps_active.size()));
  plan.carrier_formats = {format0, ReverseFormat::kFormat2};
  const ReverseCycleLayout layout0(format0);
  const int gps_grants = std::min(static_cast<int>(gps_active.size()),
                                  layout0.gps_slot_count());
  for (int i = 0; i < gps_grants; ++i) {
    PolicySlotPlan p;
    p.slot = i;
    p.short_slot = true;
    p.use = PolicySlotUse::kGpsReport;
    p.owner = gps_active[static_cast<std::size_t>(i)]->uid;
    if (gps_active[static_cast<std::size_t>(i)]->gps_report_pending) {
      p.transmitters = {gps_active[static_cast<std::size_t>(i)]->node};
    }
    plan.slots.push_back(std::move(p));
  }

  // Round-robin data grants over both carriers' data slots, one fragment
  // per grant per pass, pointer persisting across cycles.
  struct Candidate {
    int node;
    UserId uid;
    bool gps;
    int remaining;
  };
  std::vector<Candidate> cands;
  for (const PolicyNodeView& v : nodes) {
    if (v.backlog_packets > 0) cands.push_back(Candidate{v.node, v.uid, v.gps, v.backlog_packets});
  }
  if (!cands.empty()) {
    struct DataSlot {
      int carrier;
      int slot;
    };
    std::vector<DataSlot> slots;
    const int d0 = layout0.data_slot_count();
    for (int s = 0; s < d0; ++s) slots.push_back(DataSlot{0, s});
    const int d1 = ReverseCycleLayout(ReverseFormat::kFormat2).data_slot_count();
    for (int s = 0; s < d1; ++s) slots.push_back(DataSlot{1, s});

    std::size_t cursor = 0;
    while (cursor < cands.size() && cands[cursor].node < rr_next_) ++cursor;
    if (cursor == cands.size()) cursor = 0;

    int last_granted = -1;
    for (const DataSlot& ds : slots) {
      // A GPS user in carrier 0's final data slot would clash with the
      // gps-user-last-slot scheduling invariant; skip them there.
      const bool last0 = ds.carrier == 0 && ds.slot == d0 - 1;
      bool granted = false;
      for (std::size_t scanned = 0; scanned < cands.size(); ++scanned) {
        Candidate& c = cands[(cursor + scanned) % cands.size()];
        if (c.remaining <= 0 || (last0 && c.gps)) continue;
        PolicySlotPlan p;
        p.slot = ds.slot;
        p.use = PolicySlotUse::kData;
        p.owner = c.uid;
        p.transmitters = {c.node};
        p.carrier = ds.carrier;
        plan.slots.push_back(std::move(p));
        --c.remaining;
        last_granted = c.node;
        cursor = (cursor + scanned + 1) % cands.size();
        granted = true;
        break;
      }
      if (!granted && last0) continue;  // only GPS demand left; try carrier 1
      if (!granted) break;              // demand exhausted
    }
    if (last_granted >= 0) rr_next_ = last_granted + 1;
  }

  return plan;
}

void PcaPolicy::ResolveSlot(const PolicySlotPlan& /*plan*/,
                            const PolicySlotResult& /*result*/) {
  // Deterministic grid: nothing to learn from channel outcomes.
}

}  // namespace osumac::mac
