// Ablation benches for the design choices called out in DESIGN.md that the
// per-figure benches do not isolate on their own:
//   (2) XOR layout swizzle — bank-conflict counts of the transposed read on
//       the simulated shared-memory tile vs the naive layout (the host
//       engine runs no transpose, so there is nothing to time);
//   (+) batch-size sweep of the batched ERI engine;
//   (+) partitioner comparison on a skewed Fock workload.
#include <cstdio>
#include <vector>

#include "accel/tile_buffer.hpp"
#include "compilermako/registry.hpp"
#include "kernelmako/batched_eri.hpp"
#include "parallel/simcomm.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {
using namespace mako;

void ablate_swizzle() {
  std::printf("[Ablation 2] Lightweight layout swizzle\n");

  // Bank-conflict accounting on the simulated SMEM tile.
  TileBuffer<float> naive(32, 32, TileLayout::kNaive);
  TileBuffer<float> swz(32, 32, TileLayout::kSwizzle);
  int worst_naive = 0, worst_swz = 0;
  for (std::size_t col = 0; col < 32; ++col) {
    worst_naive = std::max(worst_naive, naive.column_access_transactions(col));
    worst_swz = std::max(worst_swz, swz.column_access_transactions(col));
  }
  std::printf("  transposed-column SMEM transactions per warp: naive %d-way, "
              "swizzled %d-way\n\n",
              worst_naive, worst_swz);
}

void ablate_batch_size() {
  std::printf("[Ablation +] Batch-size sweep, (dd|dd) K{1,1} quartets/s\n");
  const EriClassKey key{2, 2, 2, 2, 1, 1};
  const CalibrationBatch batch = make_calibration_batch(key, 128, 21);
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  std::printf("  %6s %14s\n", "batch", "quartets/s");
  for (std::size_t bs : {1u, 4u, 16u, 64u, 128u}) {
    std::span<const QuartetRef> slice(batch.quartets.data(), bs);
    engine.compute_batch(key, slice, out);
    Timer t;
    int reps = static_cast<int>(256 / bs) + 1;
    for (int r = 0; r < reps; ++r) engine.compute_batch(key, slice, out);
    std::printf("  %6zu %14.0f\n", bs,
                static_cast<double>(reps) * bs / t.seconds());
  }
  std::printf("\n");
}

void ablate_partitioners() {
  std::printf("[Ablation +] Scheduling policy on a skewed Fock workload "
              "(64 ranks)\n");
  Rng rng(3);
  std::vector<double> costs(20000);
  for (auto& c : costs) c = rng.log_uniform(1e-5, 1e-2);
  // A few heavy high-angular-momentum batches dominate.
  for (int i = 0; i < 24; ++i) costs[i * 777 % costs.size()] = 0.35;

  ClusterModel cluster;
  struct Policy {
    const char* name;
    Partition part;
  };
  Partition blocks;
  {
    blocks.rank_tasks.resize(64);
    blocks.rank_loads.assign(64, 0.0);
    for (std::size_t t = 0; t < costs.size(); ++t) {
      const int r = static_cast<int>(t * 64 / costs.size());
      blocks.rank_tasks[r].push_back(t);
      blocks.rank_loads[r] += costs[t];
    }
  }
  const Policy policies[] = {
      {"contiguous blocks", blocks},
      {"round robin", partition_round_robin(costs, 64)},
      {"LPT greedy (Mako)", partition_lpt(costs, 64)},
  };
  for (const Policy& p : policies) {
    std::printf("  %-20s balance %.3f  efficiency %.1f%%\n", p.name,
                p.part.balance(),
                100.0 * parallel_efficiency(p.part, 64, 8u << 20, cluster));
  }
}

}  // namespace

int main() {
  ablate_swizzle();
  ablate_batch_size();
  ablate_partitioners();
  return 0;
}
