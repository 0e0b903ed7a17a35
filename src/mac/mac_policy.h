// The pluggable MAC-policy seam: what a medium-access protocol must decide,
// expressed over the notification-cycle grid and nothing else.
//
// A MacPolicy plans each cycle (who transmits in which reverse slot, on
// which carrier) and learns what the channel did to every planned slot.  It
// never touches the channel, FEC, or event engine: the generic driver
// (mac::PolicyCell) owns those through the CellSubstrate, translates the
// plan into really-coded bursts, resolves each slot through the collision
// model, and reports back a PolicySlotResult.  That division is the layering
// contract of docs/MAC_POLICIES.md, enforced by the `policy-layer-boundary`
// lint rule: policy sources include this header (plus ids/cycle_layout/
// config and common/), never phy/ or exp/ internals.
//
// Tenants:
//   osu   — the paper's protocol.  Its signalling is in-band (control
//           fields, contention-based registration), so it is not a
//           MacPolicy: mac::Cell drives the BaseStation directly.
//   rqma  — reservation-queue multiple access (mac/policies/rqma_policy.h),
//           ported from src/baselines/rqma.* onto the real channel.
//   pca   — PCA-style two-carrier time/frequency access
//           (mac/policies/pca_policy.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "mac/cycle_layout.h"
#include "mac/ids.h"

namespace osumac::mac {

/// What a planned reverse slot is for.
enum class PolicySlotUse {
  kAccessRequest,  ///< contention access / reservation request
  kGpsReport,      ///< a GPS position report
  kData,           ///< data fragments
};

/// One reverse slot of the cycle grid, as planned by a policy.
struct PolicySlotPlan {
  /// Slot index within its carrier's grid: GPS short-slot index when
  /// `short_slot`, data-slot index otherwise (mac/cycle_layout.h geometry).
  int slot = 0;
  bool short_slot = false;
  PolicySlotUse use = PolicySlotUse::kData;
  /// Scheduled owner; kNoUser marks an open contention slot (several
  /// transmitters may collide there without violating the protocol).
  UserId owner = kNoUser;
  /// Node indices the policy directs to transmit in this slot.  Under
  /// contention this may hold several nodes; the channel decides.
  std::vector<int> transmitters;
  /// Carrier index; 0 is the substrate's reverse channel, higher indices
  /// are extra frequency carriers the driver provisions (PCA).
  int carrier = 0;
};

/// A deadline drop the policy orders before the cycle runs: the driver
/// discards every fragment of `node` enqueued at or before
/// `enqueued_at_or_before` and accounts them as deadline drops.
struct PolicyDrop {
  int node = 0;
  Tick enqueued_at_or_before = -1;
};

/// A full cycle plan: one reverse grid per carrier plus the slot schedule.
struct PolicyCyclePlan {
  /// Reverse-cycle format per carrier; the vector's size is the number of
  /// carriers in use this cycle (>= 1).
  std::vector<ReverseFormat> carrier_formats{ReverseFormat::kFormat2};
  std::vector<PolicySlotPlan> slots;
  std::vector<PolicyDrop> drops;

  int carriers() const { return static_cast<int>(carrier_formats.size()); }
};

/// What the policy may know about one node when planning: registration
/// identity plus queue pressure.  The driver builds these views; policies
/// never see subscriber internals.
struct PolicyNodeView {
  int node = 0;
  UserId uid = kNoUser;
  bool gps = false;
  /// 44-byte fragments queued for uplink.
  int backlog_packets = 0;
  /// Enqueue tick of the oldest queued fragment; -1 when the queue is empty.
  Tick head_enqueue_tick = -1;
  /// True if a GPS fix will be ready for transmission this cycle.
  bool gps_report_pending = false;
};

/// What the channel did to one planned slot, translated from the phy-layer
/// reception so policies stay phy-free.
struct PolicySlotResult {
  enum class Outcome { kIdle, kCollision, kDecodeFailure, kDecoded };
  Outcome outcome = Outcome::kIdle;
  /// Transmitting node for kDecoded/kDecodeFailure; -1 otherwise.
  int sender = -1;
  /// Nodes involved in a collision.
  std::vector<int> colliders;
  /// Decoded payload bytes credited to the sender (kDecoded data slots).
  int payload_bytes = 0;
};

/// A cell-level medium-access policy.  One instance per cell; all calls
/// arrive from the cell's (single-threaded) event loop in simulation order.
class MacPolicy {
 public:
  virtual ~MacPolicy() = default;

  /// Stable lowercase identifier ("osu", "rqma", ...): scenario `mac` key,
  /// metric prefixes, figure series labels.
  virtual std::string name() const = 0;

  /// A node joined the cell (driver-assigned `uid`) / left it.
  virtual void OnRegistration(int node, UserId uid, bool wants_gps) = 0;
  virtual void OnSignOff(int node, UserId uid) = 0;

  /// Plans cycle `cycle` from the node views.  `rng` is the policy's own
  /// seed stream (exp::SeedStream::kMacPolicy) — policies must draw all
  /// randomness from it so the substrate's channel stream stays untouched.
  virtual PolicyCyclePlan PlanCycle(std::int64_t cycle,
                                    const std::vector<PolicyNodeView>& nodes,
                                    Rng& rng) = 0;

  /// Reports the channel outcome of one planned slot, in slot order.
  virtual void ResolveSlot(const PolicySlotPlan& plan,
                           const PolicySlotResult& result) = 0;
};

/// Policy names the scenario layer accepts for the `mac` key, in canonical
/// order (the comparative-figure series order).
const std::vector<std::string>& KnownMacPolicies();
bool IsKnownMacPolicy(const std::string& name);

/// Builds a grid tenant by name for mac::PolicyCell.  CHECK-fails on "osu"
/// (the paper's protocol runs on mac::Cell; exp::ScenarioRun picks the
/// driver) and on unknown names — validate with IsKnownMacPolicy first.
std::unique_ptr<MacPolicy> MakeMacPolicy(const std::string& name);

}  // namespace osumac::mac
