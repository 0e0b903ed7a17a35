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
// simulator.  The scheduled closures share ownership of the generator
// state, so a workload object may safely be destroyed (or Stop()ped) while
// arrivals are still pending — pending events then fire once more at most
// and go quiet.  The Cell must outlive any running workload.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

/// Poisson uplink e-mail workload attached to a set of subscribers.
/// Arrivals are scheduled on the simulator; each arrival hands a message of
/// sampled size to the sink.  The driver convenience constructor targets
/// CellDriver::SendUplinkMessage (mac::Cell or mac::PolicyCell) with an
/// identical draw sequence; the sink form drives anything else.
class PoissonUplinkWorkload {
 public:
  /// Sink for one generated message: (node, bytes).
  using MessageSink = std::function<void(int, int)>;

  /// Starts generating immediately.  `mean_interarrival` is per subscriber.
  PoissonUplinkWorkload(mac::CellDriver& cell, std::vector<int> nodes,
                        Tick mean_interarrival, SizeDistribution sizes, Rng rng);
  /// Generic form: arrivals go to `sink`, scheduled on `sim`.
  PoissonUplinkWorkload(sim::Simulator& sim, std::vector<int> nodes,
                        Tick mean_interarrival, SizeDistribution sizes, Rng rng,
                        MessageSink sink);

  /// Stops generating: pending arrival events become no-ops.
  void Stop() { state_->stopped = true; }

  std::int64_t messages_generated() const { return state_->generated; }

 private:
  struct State {
    sim::Simulator& sim;
    Tick mean_interarrival;
    SizeDistribution sizes;
    Rng rng;
    MessageSink sink;
    std::int64_t generated = 0;
    bool stopped = false;
  };
  static void ScheduleNext(const std::shared_ptr<State>& state, int node);

  std::shared_ptr<State> state_;
};

/// Poisson downlink workload (e-mail delivery to mobiles), the forward-
/// channel counterpart.
class PoissonDownlinkWorkload {
 public:
  PoissonDownlinkWorkload(mac::Cell& cell, std::vector<int> nodes,
                          Tick mean_interarrival, SizeDistribution sizes, Rng rng);

  /// Stops generating: pending arrival events become no-ops.
  void Stop() { state_->stopped = true; }

  std::int64_t messages_generated() const { return state_->generated; }

 private:
  struct State {
    mac::Cell& cell;
    Tick mean_interarrival;
    SizeDistribution sizes;
    Rng rng;
    std::int64_t generated = 0;
    bool stopped = false;
  };
  static void ScheduleNext(const std::shared_ptr<State>& state, int node);

  std::shared_ptr<State> state_;
};

}  // namespace osumac::traffic
