#include "traffic/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "mac/packet.h"

namespace osumac::traffic {

Tick MeanInterarrivalTicks(double rho, int data_users, int data_slots,
                           double mean_message_bytes) {
  OSUMAC_CHECK(rho > 0 && data_users > 0 && data_slots > 0);
  const double capacity_bytes_per_cycle =
      static_cast<double>(data_slots) * mac::kPacketPayloadBytes;
  const double t_seconds = static_cast<double>(data_users) *
                           ToSeconds(mac::kCycleTicks) * mean_message_bytes /
                           (rho * capacity_bytes_per_cycle);
  return std::max<Tick>(1, static_cast<Tick>(std::llround(t_seconds * kTicksPerSecond)));
}

PoissonArrivals::PoissonArrivals(sim::Simulator& sim, const std::vector<int>& nodes,
                                 Tick mean_interarrival, SizeDistribution sizes, Rng rng)
    : sim_(sim),
      self_(sim.AddTarget(this)),
      mean_interarrival_(mean_interarrival),
      sizes_(sizes),
      rng_(std::move(rng)) {
  for (int node : nodes) ScheduleNext(node);
}

PoissonArrivals::~PoissonArrivals() { sim_.RemoveTarget(self_); }

void PoissonArrivals::ScheduleNext(int node) {
  const Tick gap = std::max<Tick>(
      1, static_cast<Tick>(std::llround(
             rng_.Exponential(static_cast<double>(mean_interarrival_)))));
  sim_.ScheduleAt(sim_.now() + gap, self_, /*kind=*/0, node);
}

void PoissonArrivals::Fire(const sim::Event& event) {
  if (stopped_) return;
  ++generated_;
  Deliver(event.index, sizes_.Sample(rng_));
  ScheduleNext(event.index);
}

}  // namespace osumac::traffic
