// Tests for the traffic workload generators and the paper's load-index
// formula (Section 5).
#include <gtest/gtest.h>

#include "mac/cell.h"
#include "traffic/workload.h"

namespace osumac::traffic {
namespace {

TEST(SizeDistributionTest, FixedAlwaysSame) {
  const auto dist = SizeDistribution::Fixed(120);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(dist.MeanBytes(), 120.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.Sample(rng), 120);
}

TEST(SizeDistributionTest, UniformWithinBoundsAndMean) {
  const auto dist = SizeDistribution::Uniform(40, 500);
  EXPECT_DOUBLE_EQ(dist.MeanBytes(), 270.0);
  Rng rng(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int s = dist.Sample(rng);
    EXPECT_GE(s, 40);
    EXPECT_LE(s, 500);
    sum += s;
  }
  EXPECT_NEAR(sum / n, 270.0, 5.0);
}

TEST(MeanInterarrivalTest, InvertsTheLoadFormula) {
  // rho = (msgs/cycle * mean_size) / (d * 44); msgs/cycle = m * cycle / T.
  for (double rho : {0.3, 0.5, 0.8, 1.0}) {
    for (int d : {8, 9}) {
      const int m = 10;
      const double mean_size = 270.0;
      const Tick t = MeanInterarrivalTicks(rho, m, d, mean_size);
      const double msgs_per_cycle =
          static_cast<double>(m) * ToSeconds(mac::kCycleTicks) / ToSeconds(t);
      const double achieved = msgs_per_cycle * mean_size / (d * 44.0);
      EXPECT_NEAR(achieved, rho, 0.01) << "rho=" << rho << " d=" << d;
    }
  }
}

TEST(MeanInterarrivalTest, MonotoneInLoad) {
  const Tick low = MeanInterarrivalTicks(0.3, 10, 8, 270.0);
  const Tick high = MeanInterarrivalTicks(1.1, 10, 8, 270.0);
  EXPECT_GT(low, high) << "more load means shorter interarrival";
}

TEST(PoissonWorkloadTest, GeneratesAtConfiguredRate) {
  mac::CellConfig config;
  config.seed = 3;
  mac::Cell cell(config);
  std::vector<int> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(cell.AddSubscriber(false));
    cell.PowerOn(nodes.back());
  }
  const Tick mean = 5 * mac::kCycleTicks;  // 1 msg per user per 5 cycles
  {
    PoissonUplinkWorkload w(cell, nodes, mean, SizeDistribution::Fixed(120), Rng(4));
    cell.RunCycles(400);
    // Expected: 5 users * 400 cycles / 5 = 400 messages (+/- statistical).
    EXPECT_NEAR(static_cast<double>(w.messages_generated()), 400.0, 60.0);
    EXPECT_EQ(cell.metrics().uplink_messages_offered, w.messages_generated());
  }
  // A destroyed workload behaves like a stopped one: its pending arrivals
  // still fire, as no-ops.
  const std::int64_t offered = cell.metrics().uplink_messages_offered;
  cell.RunCycles(400);
  EXPECT_EQ(cell.metrics().uplink_messages_offered, offered);
}

TEST(PoissonDownlinkWorkloadTest, DeliversToRegisteredUsers) {
  mac::CellConfig config;
  config.seed = 5;
  mac::Cell cell(config);
  const int node = cell.AddSubscriber(false);
  cell.PowerOn(node);
  cell.RunCycles(5);
  PoissonDownlinkWorkload w(cell, {node}, 2 * mac::kCycleTicks,
                            SizeDistribution::Fixed(88), Rng(6));
  cell.RunCycles(60);
  EXPECT_GT(w.messages_generated(), 10);
  EXPECT_GT(cell.subscriber(node).stats().forward_packets_received, 20);
}

}  // namespace
}  // namespace osumac::traffic
