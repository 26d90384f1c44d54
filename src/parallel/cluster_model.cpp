#include "parallel/cluster_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <queue>

#include "parallel/communicator.hpp"
#include "robust/status.hpp"

namespace mako {

double ClusterModel::allreduce_seconds(int nranks, std::size_t bytes) const {
  if (nranks <= 1 || bytes == 0) return 0.0;
  // Ring allreduce: 2*(R-1) steps, each moving bytes/R. Hops that cross node
  // boundaries run at internode speed; with one ring through all ranks a
  // fraction (R/devices_per_node)/R of hops are internode.  Ranks that
  // exactly fill one node (nranks == devices_per_node) take zero internode
  // hops — the crossover to internode accounting happens strictly above the
  // node capacity.  A non-positive devices_per_node is treated as 1 (every
  // rank its own node) rather than dividing by zero.
  const int dpn = std::max(devices_per_node, 1);
  const double steps = 2.0 * (nranks - 1);
  const double chunk = static_cast<double>(bytes) / nranks;
  const int nodes = (nranks + dpn - 1) / dpn;
  const double internode_fraction =
      (nodes <= 1) ? 0.0 : static_cast<double>(nodes) / nranks;
  const double per_step_bw =
      internode_fraction * (chunk / internode.bandwidth_bps) +
      (1.0 - internode_fraction) * (chunk / intranode.bandwidth_bps);
  const double per_step_lat = internode_fraction * internode.latency_s +
                              (1.0 - internode_fraction) * intranode.latency_s;
  return steps * (per_step_lat + per_step_bw);
}

double ClusterModel::broadcast_seconds(int nranks, std::size_t bytes) const {
  if (nranks <= 1 || bytes == 0) return 0.0;
  const int dpn = std::max(devices_per_node, 1);
  const double hops = std::ceil(std::log2(static_cast<double>(nranks)));
  const int nodes = (nranks + dpn - 1) / dpn;
  const LinkModel& link = (nodes > 1) ? internode : intranode;
  return hops * (link.latency_s + static_cast<double>(bytes) / link.bandwidth_bps);
}

ClusterModel cluster_model_from_name(const std::string& name) {
  if (name.empty() || name == "default") return ClusterModel{};
  if (name == "single-node") {
    ClusterModel cluster;
    cluster.devices_per_node = kMaxCommRanks;  // every rank stays on NVLink
    return cluster;
  }
  if (name == "ethernet") {
    ClusterModel cluster;
    cluster.internode = LinkModel{50e-6, 1.25e9};  // 10 GbE
    return cluster;
  }
  char msg[192];
  std::snprintf(msg, sizeof msg,
                "cluster model: unknown cluster '%s'; valid names: default, "
                "single-node, ethernet",
                name.c_str());
  throw InputError(FaultKind::kInvalidInput, msg);
}

double Partition::max_load() const {
  double m = 0.0;
  for (double l : rank_loads) m = std::max(m, l);
  return m;
}

double Partition::total_load() const {
  return std::accumulate(rank_loads.begin(), rank_loads.end(), 0.0);
}

double Partition::balance() const {
  if (rank_loads.empty()) return 1.0;
  const double mx = max_load();
  if (mx == 0.0) return 1.0;
  return total_load() / (rank_loads.size() * mx);
}

Partition partition_round_robin(const std::vector<double>& task_costs,
                                int nranks) {
  Partition p;
  p.rank_tasks.resize(nranks);
  p.rank_loads.assign(nranks, 0.0);
  for (std::size_t t = 0; t < task_costs.size(); ++t) {
    const int r = static_cast<int>(t % nranks);
    p.rank_tasks[r].push_back(t);
    p.rank_loads[r] += task_costs[t];
  }
  return p;
}

Partition partition_lpt(const std::vector<double>& task_costs, int nranks) {
  Partition p;
  p.rank_tasks.resize(nranks);
  p.rank_loads.assign(nranks, 0.0);

  std::vector<std::size_t> order(task_costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return task_costs[a] > task_costs[b];
  });

  using Slot = std::pair<double, int>;  // (load, rank)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (int r = 0; r < nranks; ++r) heap.emplace(0.0, r);

  for (std::size_t t : order) {
    auto [load, r] = heap.top();
    heap.pop();
    p.rank_tasks[r].push_back(t);
    load += task_costs[t];
    p.rank_loads[r] = load;
    heap.emplace(load, r);
  }
  return p;
}

double parallel_efficiency(const Partition& part, int nranks,
                           std::size_t reduce_bytes,
                           const ClusterModel& cluster) {
  const double serial = part.total_load();
  const double comm = cluster.allreduce_seconds(nranks, reduce_bytes);
  const double parallel_time = part.max_load() + comm;
  if (parallel_time <= 0.0) return 1.0;
  return serial / (nranks * parallel_time);
}

}  // namespace mako
