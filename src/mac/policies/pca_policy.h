// PCA-style two-carrier time/frequency access as a MacPolicy tenant — the
// "more spectrum, simpler control" comparison point for the head-to-head
// figure.
//
// Carrier 0 carries the control-ish traffic: GPS-capable nodes get a TDMA
// short-slot each (dense prefix in registration order; the format follows
// FormatForGpsCount like the OSU dynamic grid), and its data slots join the
// shared round-robin pool.  Carrier 1 is a second format-2 frequency
// carrier contributing 9 more data slots to the pool.  Data slots are
// granted round-robin over backlogged nodes with a persistent pointer, one
// fragment per grant per pass.
//
// The policy is fully deterministic — it draws nothing from the policy RNG
// stream — so its plans are reproducible from the node views alone.
#pragma once

#include <string>
#include <vector>

#include "mac/mac_policy.h"

namespace osumac::mac {

class PcaPolicy final : public MacPolicy {
 public:
  std::string name() const override { return "pca"; }

  void OnRegistration(int node, UserId uid, bool wants_gps) override;
  void OnSignOff(int node, UserId uid) override;
  PolicyCyclePlan PlanCycle(std::int64_t cycle,
                            const std::vector<PolicyNodeView>& nodes,
                            Rng& rng) override;
  void ResolveSlot(const PolicySlotPlan& plan,
                   const PolicySlotResult& result) override;

 private:
  /// GPS-capable nodes in registration order (sign-off compacts the TDMA
  /// prefix; moving a slot earlier is deadline-safe).
  std::vector<int> gps_order_;
  /// Round-robin pointer: first node index considered for the next cycle's
  /// data grants.
  int rr_next_ = 0;
};

}  // namespace osumac::mac
