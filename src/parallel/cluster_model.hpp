// Analytic interconnect cost model and static rank partitioner.
//
// The paper's multi-GPU runs place one MPI rank per A100 and connect nodes
// with 200 Gb/s HDR InfiniBand.  This environment has no GPUs, so the
// Communicator's in-process collectives charge the time this model gives
// them, and the Fig-10 scalability experiment combines measured per-task
// compute costs with it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mako {

/// Point-to-point link characteristics.
struct LinkModel {
  double latency_s = 2e-6;        ///< per-message latency
  double bandwidth_bps = 25e9;    ///< bytes per second
};

/// A cluster of accelerator nodes (ND A100 v4-like by default: 8 devices per
/// node over NVLink, nodes over HDR InfiniBand).
struct ClusterModel {
  int devices_per_node = 8;
  LinkModel intranode{1e-6, 300e9};  ///< NVLink-class
  LinkModel internode{2e-6, 25e9};   ///< HDR IB 200 Gb/s

  /// Modeled time of a ring allreduce of `bytes` across `nranks` ranks,
  /// accounting for the slower internode hops when ranks span nodes.
  [[nodiscard]] double allreduce_seconds(int nranks, std::size_t bytes) const;

  /// Modeled broadcast time (binomial tree).
  [[nodiscard]] double broadcast_seconds(int nranks, std::size_t bytes) const;
};

/// Named cluster topologies for the analytic cost model.  Known names:
///   "default"      8 devices/node, NVLink intranode, HDR-IB internode
///   "single-node"  every rank on one NVLink node (no internode hops)
///   "ethernet"     commodity 10 GbE between nodes
/// Throws InputError (kInvalidInput) for unknown names, listing the valid
/// ones.
[[nodiscard]] ClusterModel cluster_model_from_name(const std::string& name);

/// Static work partitioning across ranks.
struct Partition {
  std::vector<std::vector<std::size_t>> rank_tasks;  ///< task ids per rank
  std::vector<double> rank_loads;                    ///< summed cost per rank

  [[nodiscard]] double max_load() const;
  [[nodiscard]] double total_load() const;
  /// load balance = mean / max; 1.0 is perfect.
  [[nodiscard]] double balance() const;
};

/// Round-robin assignment (what one-rank-per-GPU codes typically do over
/// shell-quartet batches).
Partition partition_round_robin(const std::vector<double>& task_costs,
                                int nranks);

/// Greedy longest-processing-time assignment — the better scheduler Mako's
/// batch planner enables because per-class batch costs are statically known.
Partition partition_lpt(const std::vector<double>& task_costs, int nranks);

/// Parallel efficiency of executing tasks with the given partition plus one
/// allreduce of `reduce_bytes` per SCF iteration on `cluster`:
///   eff = T_serial / (nranks * T_parallel).
double parallel_efficiency(const Partition& part, int nranks,
                           std::size_t reduce_bytes,
                           const ClusterModel& cluster);

}  // namespace mako
