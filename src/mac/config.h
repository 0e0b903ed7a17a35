// Settings of the OSU-MAC implementation: capacities (GPS users, the
// subscriber queue, the paging buffer), the contention-slot range,
// registration attempts, GPS miss sign-off, the inactive listen period and
// the feature toggles.
//
// Defaults reproduce the paper's design.  The toggles exist for the ablation
// benches (Fig. 12 and the design-choice studies in DESIGN.md): disabling
// the second control field, dynamic GPS-slot adjustment, or dynamic
// contention-slot adjustment isolates each mechanism's contribution;
// downlink ARQ is an extension the paper leaves out.  Protocol numbers with
// a single value (the backoff windows, the per-request slot cap, the ARQ
// timer and the downlink queue size) are constants next to the code that
// reads them.
#pragma once

#include <cstdint>

namespace osumac::mac {

struct MacConfig {
  // --- capacity -----------------------------------------------------------
  /// Maximum simultaneously registered GPS users (paper: 8).
  int max_gps_users = 8;
  /// Per-subscriber uplink queue capacity in packets; arrivals beyond this
  /// are dropped (the paper attributes utilization loss near rho = 1 to
  /// buffer overflow).
  int subscriber_queue_packets = 96;

  // --- contention ---------------------------------------------------------
  /// Minimum number of leading reverse data slots kept unassigned as
  /// contention slots each cycle (paper simulation: 1).
  int min_contention_slots = 1;
  /// Upper bound for dynamic contention-slot adjustment.
  int max_contention_slots = 3;
  /// If true, the base station adds a contention slot after a cycle with
  /// collisions and removes one after a cycle in which every contention
  /// slot stayed idle (Section 3.5).
  bool dynamic_contention_slots = true;

  /// Maximum registration attempts before the subscriber gives up.
  int max_registration_attempts = 64;

  // --- feature toggles (ablations) ----------------------------------------
  /// Second set of control fields (Section 3.4).  When disabled, the last
  /// reverse data slot is never assigned or used for contention, wasting
  /// its bandwidth (the alternative the paper rejects).
  bool use_second_control_field = true;
  /// Dynamic GPS slot re-assignment / format switching (Section 3.3).  When
  /// disabled the reverse cycle always uses format 1 (8 GPS slots), and GPS
  /// slots freed by sign-offs stay idle (the "naive approach").
  bool dynamic_gps_slots = true;

  // --- downlink ARQ (extension; the paper leaves the forward channel
  //     unacknowledged to save reverse bandwidth) ----------------------------
  /// If true, subscribers send selective kForwardAck packets on the
  /// reverse channel and the base station retransmits unacknowledged
  /// forward packets.  Off by default to match the paper; the ablation
  /// bench quantifies the reverse-bandwidth cost.
  bool downlink_arq = false;

  // --- uplink message routing (Section 2.2: "the base station receives
  //     data packets from all mobile subscribers and forwards them to
  //     their destinations") ------------------------------------------------
  /// Complete uplink messages addressed to an unregistered EIN are
  /// buffered (and the EIN paged) up to this many messages; beyond that
  /// they are dropped.
  int forward_buffer_messages = 8;

  // --- robustness (extension) ------------------------------------------------
  /// If > 0, a GPS user whose report has been missing for this many
  /// consecutive cycles is considered gone and signed off by the base
  /// station (releasing its GPS slot under rule R3).  0 disables.
  int gps_miss_signoff_threshold = 0;

  // --- inactive users / paging -------------------------------------------
  /// An inactive subscriber wakes and listens to CF1 once per this many
  /// cycles (15 cycles ~ 60 s: the paper's 1-minute checking delay).
  int inactive_listen_period_cycles = 15;
};

}  // namespace osumac::mac
