#include "traffic/workload.h"

#include <algorithm>
#include "common/check.h"
#include <cmath>

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

PoissonUplinkWorkload::PoissonUplinkWorkload(mac::CellDriver& cell,
                                             std::vector<int> nodes,
                                             Tick mean_interarrival,
                                             SizeDistribution sizes, Rng rng)
    : PoissonUplinkWorkload(
          cell.simulator(), std::move(nodes), mean_interarrival, sizes,
          std::move(rng),
          [&cell](int node, int bytes) { cell.SendUplinkMessage(node, bytes); }) {}

PoissonUplinkWorkload::PoissonUplinkWorkload(sim::Simulator& sim,
                                             std::vector<int> nodes,
                                             Tick mean_interarrival,
                                             SizeDistribution sizes, Rng rng,
                                             MessageSink sink)
    : state_(std::make_shared<State>(State{sim, mean_interarrival, sizes,
                                           std::move(rng), std::move(sink)})) {
  for (int node : nodes) ScheduleNext(state_, node);
}

void PoissonUplinkWorkload::ScheduleNext(const std::shared_ptr<State>& state, int node) {
  const Tick gap = std::max<Tick>(
      1, static_cast<Tick>(std::llround(
             state->rng.Exponential(static_cast<double>(state->mean_interarrival)))));
  state->sim.ScheduleAfter(gap, [state, node] {
    if (state->stopped) return;
    ++state->generated;
    state->sink(node, state->sizes.Sample(state->rng));
    ScheduleNext(state, node);
  });
}

PoissonDownlinkWorkload::PoissonDownlinkWorkload(mac::Cell& cell, std::vector<int> nodes,
                                                 Tick mean_interarrival,
                                                 SizeDistribution sizes, Rng rng)
    : state_(std::make_shared<State>(
          State{cell, mean_interarrival, sizes, std::move(rng)})) {
  for (int node : nodes) ScheduleNext(state_, node);
}

void PoissonDownlinkWorkload::ScheduleNext(const std::shared_ptr<State>& state, int node) {
  const Tick gap = std::max<Tick>(
      1, static_cast<Tick>(std::llround(
             state->rng.Exponential(static_cast<double>(state->mean_interarrival)))));
  state->cell.simulator().ScheduleAfter(gap, [state, node] {
    if (state->stopped) return;
    ++state->generated;
    state->cell.SendDownlinkMessage(node, state->sizes.Sample(state->rng));
    ScheduleNext(state, node);
  });
}

}  // namespace osumac::traffic
