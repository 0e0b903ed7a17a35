// RQMA (Figueira & Pasquale 1998) as a MacPolicy tenant on the OSU cycle
// grid — the head-to-head port of src/baselines/rqma.* onto the real
// channel substrate.
//
// Mapping onto the single-carrier format-2 grid (9 data slots, no GPS
// short slots — RQMA has no dedicated position-report ranging):
//   * the first 4 data slots are open slotted-ALOHA request slots (owner
//     kNoUser): sessionless stations with demand transmit a reservation
//     with probability 1/2;
//   * the remaining data slots are granted to at most 8 established
//     sessions: GPS-capable sessions first get one report slot each (a
//     report rides in a full data slot — RQMA has no short-slot ranging,
//     which is what the comparative figure's gps_delivery_gap column
//     shows), then earliest-deadline-first over the queued backlog.
//   * packets older than 8 cycles are dropped before planning (real-time
//     loss, PolicyDrop).
// These are the defaults of the closed-form model's baselines::Rqma::Params
// (rqma_policy.cc's constants).
//
// The paper's critique of RQMA (station-computed deadlines, cheatable,
// no bounded GPS access) is visible directly in the sweep output.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "mac/mac_policy.h"

namespace osumac::mac {

class RqmaPolicy final : public MacPolicy {
 public:
  std::string name() const override { return "rqma"; }

  void OnRegistration(int node, UserId uid, bool wants_gps) override;
  void OnSignOff(int node, UserId uid) override;
  PolicyCyclePlan PlanCycle(std::int64_t cycle,
                            const std::vector<PolicyNodeView>& nodes,
                            Rng& rng) override;
  void ResolveSlot(const PolicySlotPlan& plan,
                   const PolicySlotResult& result) override;

  int open_sessions() const { return static_cast<int>(sessions_.size()); }

 private:
  std::set<int> sessions_;  ///< nodes with an established session
};

}  // namespace osumac::mac
