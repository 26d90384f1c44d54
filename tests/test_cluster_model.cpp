// Cluster cost model and partitioner tests — the substrate of the Fig-10
// scalability experiment and of the Communicator's modeled time.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "parallel/cluster_model.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

/// Closed form of a ring allreduce that never leaves one node: 2*(R-1) steps,
/// each moving bytes/R over the intranode link.
double intranode_only_allreduce(const ClusterModel& c, int nranks,
                                std::size_t bytes) {
  const double steps = 2.0 * (nranks - 1);
  const double chunk = static_cast<double>(bytes) / nranks;
  return steps * (c.intranode.latency_s + chunk / c.intranode.bandwidth_bps);
}

TEST(ClusterModelTest, SingleRankIsFree) {
  ClusterModel cluster;
  EXPECT_DOUBLE_EQ(cluster.allreduce_seconds(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(cluster.broadcast_seconds(1, 1 << 20), 0.0);
}

TEST(ClusterModelTest, TimeGrowsWithBytes) {
  ClusterModel cluster;
  EXPECT_LT(cluster.allreduce_seconds(8, 1 << 10),
            cluster.allreduce_seconds(8, 1 << 24));
}

TEST(ClusterModelTest, InternodeSlowerThanIntranode) {
  ClusterModel cluster;
  // 8 ranks fit one node (NVLink); 16 ranks span two (InfiniBand hops).
  const std::size_t bytes = 64u << 20;
  const double t8 = cluster.allreduce_seconds(8, bytes);
  const double t16 = cluster.allreduce_seconds(16, bytes);
  EXPECT_GT(t16, t8);
}

TEST(ClusterModelTest, CrossoverHappensStrictlyAboveNodeCapacity) {
  // Regression for the node-boundary off-by-one: ranks that exactly fill one
  // node must take ZERO internode hops, so the modeled time equals the pure
  // intranode closed form bit for bit.  One rank more spans two nodes and
  // must cost strictly more than an intranode-only ring of the same size.
  ClusterModel cluster;  // 8 devices per node
  const std::size_t bytes = 16u << 20;
  EXPECT_DOUBLE_EQ(cluster.allreduce_seconds(cluster.devices_per_node, bytes),
                   intranode_only_allreduce(cluster, cluster.devices_per_node,
                                            bytes));
  EXPECT_GT(cluster.allreduce_seconds(cluster.devices_per_node + 1, bytes),
            intranode_only_allreduce(cluster, cluster.devices_per_node + 1,
                                     bytes));
}

TEST(ClusterModelTest, NonPositiveDevicesPerNodeIsFinite) {
  // devices_per_node <= 0 must degrade to one device per node, not divide by
  // zero.
  ClusterModel cluster;
  cluster.devices_per_node = 0;
  const double t = cluster.allreduce_seconds(4, 1 << 20);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_GT(t, 0.0);
  EXPECT_TRUE(std::isfinite(cluster.broadcast_seconds(4, 1 << 20)));
}

TEST(PartitionTest, RoundRobinCoversAllTasks) {
  std::vector<double> costs(10, 1.0);
  const Partition p = partition_round_robin(costs, 3);
  std::size_t total = 0;
  for (const auto& tasks : p.rank_tasks) total += tasks.size();
  EXPECT_EQ(total, 10u);
  EXPECT_DOUBLE_EQ(p.total_load(), 10.0);
}

TEST(PartitionTest, UniformCostsBalanceNearPerfectly) {
  std::vector<double> costs(64, 2.0);
  const Partition p = partition_round_robin(costs, 8);
  EXPECT_DOUBLE_EQ(p.balance(), 1.0);
  EXPECT_DOUBLE_EQ(p.max_load(), 16.0);
}

TEST(PartitionTest, LptBeatsRoundRobinOnSkewedCosts) {
  Rng rng(5);
  std::vector<double> costs(97);
  for (auto& c : costs) c = rng.log_uniform(0.01, 10.0);
  const Partition rr = partition_round_robin(costs, 8);
  const Partition lpt = partition_lpt(costs, 8);
  EXPECT_GE(lpt.balance(), rr.balance());
  EXPECT_LE(lpt.max_load(), rr.max_load() + 1e-12);
}

TEST(PartitionTest, LptNearOptimalOnUniform) {
  std::vector<double> costs(1000, 1.0);
  const Partition p = partition_lpt(costs, 7);
  EXPECT_GT(p.balance(), 0.99);
}

TEST(EfficiencyTest, PerfectBalanceNoCommIsUnitEfficiency) {
  std::vector<double> costs(64, 1.0);
  const Partition p = partition_lpt(costs, 8);
  ClusterModel cluster;
  EXPECT_NEAR(parallel_efficiency(p, 8, 0, cluster), 1.0, 1e-12);
}

TEST(EfficiencyTest, EfficiencyDecreasesWithRanks) {
  // Fixed problem, growing machine: classic strong-scaling falloff.
  Rng rng(11);
  std::vector<double> costs(512);
  for (auto& c : costs) c = rng.log_uniform(1e-4, 1e-2);
  ClusterModel cluster;
  const std::size_t fock_bytes = 8ull * 2000 * 2000;
  double prev = 1.1;
  for (int r : {1, 8, 64}) {
    const Partition p = partition_lpt(costs, r);
    const double eff = parallel_efficiency(p, r, fock_bytes, cluster);
    EXPECT_LE(eff, prev + 1e-9);
    EXPECT_GT(eff, 0.0);
    prev = eff;
  }
}

TEST(EfficiencyTest, BoundedByLoadBalance) {
  std::vector<double> costs{10.0, 1.0, 1.0, 1.0};
  const Partition p = partition_lpt(costs, 4);
  ClusterModel cluster;
  const double eff = parallel_efficiency(p, 4, 0, cluster);
  EXPECT_NEAR(eff, p.balance(), 1e-12);
  EXPECT_LT(eff, 0.5);  // dominated by the single big task
}

}  // namespace
}  // namespace mako
