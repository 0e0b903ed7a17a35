// Workload generation for the paper's evaluation (Section 5).
//
// E-mail messages arrive at each data subscriber as a Poisson process with
// mean interarrival time T.  Two packet-size models are used: fixed
// L = 120 bytes, and variable length uniform in [40, 500] bytes (mean 280).
// The load index rho of the reverse channel is
//     rho = (avg messages per cycle * avg size) / (bytes per cycle in the
//            d data slots)
// and T is derived from rho exactly as in the paper:
//     T = m * cycle_length * avg_size / (rho * d * payload_per_slot).
//
// Lifetime: generators schedule their own next arrival on the Cell's
// simulator.  A workload may be destroyed (or Stop()ped) while arrivals are
// still pending: those events then fire as no-ops.  The Cell must outlive
// any workload attached to it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "mac/cell.h"
#include "sim/simulator.h"

namespace osumac::traffic {

/// Message-size models from the paper's simulation.
struct SizeDistribution {
  enum class Kind { kFixed, kUniform };
  Kind kind = Kind::kUniform;
  int fixed_bytes = 120;
  int uniform_lo = 40;
  int uniform_hi = 500;

  static SizeDistribution Fixed(int bytes) {
    return {Kind::kFixed, bytes, 0, 0};
  }
  static SizeDistribution Uniform(int lo, int hi) {
    return {Kind::kUniform, 0, lo, hi};
  }

  double MeanBytes() const {
    return kind == Kind::kFixed ? fixed_bytes : (uniform_lo + uniform_hi) / 2.0;
  }
  int Sample(Rng& rng) const {
    return kind == Kind::kFixed
               ? fixed_bytes
               : static_cast<int>(rng.UniformInt(uniform_lo, uniform_hi));
  }
};

/// Mean interarrival time (ticks) per subscriber that yields load index
/// `rho` with `data_users` subscribers and `data_slots` reverse data slots
/// per cycle (the paper's formula; payload per slot is 44 bytes).
Tick MeanInterarrivalTicks(double rho, int data_users, int data_slots,
                           double mean_message_bytes);

/// The per-node Poisson arrival process shared by the uplink and downlink
/// workloads.  Each pending arrival is a sim::Event whose `index` is the
/// node; the generator is the event target.
class PoissonArrivals : private sim::EventTarget {
 public:
  /// Stops generating: pending arrival events become no-ops.
  void Stop() { stopped_ = true; }

  std::int64_t messages_generated() const { return generated_; }

 protected:
  /// Starts generating immediately.  `mean_interarrival` is per node.
  PoissonArrivals(sim::Simulator& sim, const std::vector<int>& nodes,
                  Tick mean_interarrival, SizeDistribution sizes, Rng rng);
  /// Unregisters the generator; its pending arrivals fire as no-ops.
  ~PoissonArrivals();

 private:
  /// Hands one generated message of `bytes` to `node`.
  virtual void Deliver(int node, int bytes) = 0;
  void Fire(const sim::Event& event) override;
  void ScheduleNext(int node);

  sim::Simulator& sim_;
  const std::int32_t self_;  ///< target id on sim_
  Tick mean_interarrival_;
  SizeDistribution sizes_;
  Rng rng_;
  std::int64_t generated_ = 0;
  bool stopped_ = false;
};

/// Poisson uplink e-mail workload attached to a set of nodes of any
/// CellDriver (mac::Cell or mac::PolicyCell): each arrival hands a message
/// of sampled size to CellDriver::SendUplinkMessage.
class PoissonUplinkWorkload final : public PoissonArrivals {
 public:
  PoissonUplinkWorkload(mac::CellDriver& cell, const std::vector<int>& nodes,
                        Tick mean_interarrival, SizeDistribution sizes, Rng rng)
      : PoissonArrivals(cell.simulator(), nodes, mean_interarrival, sizes,
                        std::move(rng)),
        cell_(cell) {}

 private:
  void Deliver(int node, int bytes) override { cell_.SendUplinkMessage(node, bytes); }

  mac::CellDriver& cell_;
};

/// Poisson downlink workload (e-mail delivery to mobiles), the forward-
/// channel counterpart.
class PoissonDownlinkWorkload final : public PoissonArrivals {
 public:
  PoissonDownlinkWorkload(mac::Cell& cell, const std::vector<int>& nodes,
                          Tick mean_interarrival, SizeDistribution sizes, Rng rng)
      : PoissonArrivals(cell.simulator(), nodes, mean_interarrival, sizes,
                        std::move(rng)),
        cell_(cell) {}

 private:
  void Deliver(int node, int bytes) override { cell_.SendDownlinkMessage(node, bytes); }

  mac::Cell& cell_;
};

}  // namespace osumac::traffic
