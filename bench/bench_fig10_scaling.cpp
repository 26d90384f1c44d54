// [Figure 10] Scalability: parallel efficiency of rank-sharded SCF on the
// Figure-8 molecule set, 1-64 simulated A100s.
//
// The paper runs ubiquitin/def2-TZVP across 8 Azure ND A100 v4 nodes (64
// GPUs over HDR InfiniBand) and reports >90% parallel efficiency on a single
// node and ~70% on 64 GPUs.  Per the substitution rules the cluster is
// simulated, but the per-rank COMPUTE is measured, not modeled: the Fock
// builder digests into FockPlan::kOwnerSlices fixed owner slices and reports
// per-slice CPU seconds (FockStats::slice_compute_seconds), and rank r of N
// owns the contiguous slice block [r*S/N, (r+1)*S/N) — exactly the partition
// `mako --ranks N` executes.  So for every rank count up to kMaxCommRanks
// this bench reads the real per-rank compute of a real SCF density off one
// single-rank build; only the collectives (ring-allreduce / binomial
// broadcast on the NVLink + HDR-IB ClusterModel) and the 32/64-rank
// extrapolation are modeled.
//
//   efficiency(R) = T1 / (R * T_par(R))
//   T1       = total JK compute + replicated stage (diag/DIIS/density)
//   T_par(R) = max per-rank JK compute + replicated stage + modeled comm
//
// Usage: bench_fig10_scaling [--json=PATH] [--cluster=NAME]
//                            [--size=N] [--basis=NAME]
// `--json=PATH` writes the records as BENCH_fig10.json for the benchmark
// harness (bench/run_benchmarks.sh).  Defaults fit a single-core budget
// (size 1, def2-SVP); `--size=2 --basis=def2-tzvp` reproduces the paper's
// structural level (cost grows as the fourth power of system size).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "parallel/communicator.hpp"
#include "parallel/cluster_model.hpp"
#include "scf/fock.hpp"
#include "scf/scf.hpp"

namespace {
using namespace mako;

constexpr int kRankCounts[] = {1, 2, 4, 8, 16, 32, 64};

struct RankPoint {
  int ranks = 0;
  double compute_s = 0.0;     ///< max per-rank JK compute
  double replicated_s = 0.0;  ///< per-iteration stage every rank repeats
  double comm_s = 0.0;        ///< modeled collective time per iteration
  double efficiency = 0.0;
  bool modeled_split = false;  ///< true above kMaxCommRanks (no slices left)
};

struct SystemRecord {
  std::string name;
  std::size_t atoms = 0;
  std::size_t nbf = 0;
  double total_compute_s = 0.0;
  std::vector<RankPoint> points;
};

/// Measured per-rank JK compute at rank count R: the slice-block maximum for
/// R <= kOwnerSlices (the partition `--ranks R` actually executes), or an
/// ideal balanced split of the total above that (the slices cannot be
/// subdivided further, so the extrapolation is explicitly modeled).
double per_rank_compute(const FockStats& fs, int ranks, bool* modeled) {
  constexpr std::size_t kS = FockPlan::kOwnerSlices;
  double total = 0.0;
  for (double s : fs.slice_compute_seconds) total += s;
  if (ranks <= static_cast<int>(kS)) {
    *modeled = false;
    const std::size_t per = kS / static_cast<std::size_t>(ranks);
    double worst = 0.0;
    for (int r = 0; r < ranks; ++r) {
      double load = 0.0;
      for (std::size_t i = 0; i < per; ++i) {
        load += fs.slice_compute_seconds[static_cast<std::size_t>(r) * per + i];
      }
      worst = std::max(worst, load);
    }
    return worst;
  }
  *modeled = true;
  return total / ranks;
}

SystemRecord run_system(const char* name, const Molecule& mol,
                        const std::string& basis,
                        const ClusterModel& cluster) {
  const BasisSet bs(mol, basis);
  SystemRecord rec;
  rec.name = name;
  rec.atoms = mol.size();
  rec.nbf = bs.nbf();

  // A short real SCF produces a physical density and the replicated-stage
  // timing; a final single-rank Fock build on that density yields the
  // measured per-slice compute the rank partition is read from.
  ExecutionContextOptions ctx_opt;
  ctx_opt.ranks = 1;
  const ExecutionContext ctx(ctx_opt);

  ScfOptions options;
  options.fixed_iterations = 3;
  const ScfResult scf = run_scf(mol, bs, options, &ctx);

  FockBuilder builder(bs, options.fock, &ctx);
  IterationPolicy policy;
  policy.allow_quantized = false;
  policy.fp64_threshold = 0.0;
  policy.prune_threshold = options.prune_threshold;
  MatrixD j, k;
  const FockStats fs = builder.build_jk(scf.density, policy, j, k);

  double total_compute = 0.0;
  for (double s : fs.slice_compute_seconds) total_compute += s;
  rec.total_compute_s = total_compute;

  // Everything outside the sharded JK build is replicated on every rank
  // (diagonalization, DIIS, density build, XC): iteration wall minus the
  // build's wall clock, averaged over the steady-state iterations.
  double replicated = scf.avg_iteration_seconds() - fs.jk_wall_seconds;
  replicated = std::max(replicated, 0.0);

  // Per-iteration collectives of the rank-sharded driver: the J and the K
  // partial allreduce plus the iteration-boundary barrier.
  const std::size_t jk_bytes = rec.nbf * rec.nbf * sizeof(double);

  const double t1 = total_compute + replicated;
  for (int r : kRankCounts) {
    RankPoint p;
    p.ranks = r;
    p.compute_s = per_rank_compute(fs, r, &p.modeled_split);
    p.replicated_s = replicated;
    p.comm_s = 2.0 * cluster.allreduce_seconds(r, jk_bytes) +
               cluster.allreduce_seconds(r, sizeof(double));
    const double t_par = p.compute_s + p.replicated_s + p.comm_s;
    p.efficiency = (t_par > 0.0) ? t1 / (r * t_par) : 1.0;
    rec.points.push_back(p);
  }
  return rec;
}

void write_json(const char* path, const std::vector<SystemRecord>& records,
                const std::string& cluster_name) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"figure\": \"fig10\",\n  \"metric\": "
               "\"parallel efficiency of rank-sharded SCF (measured per-rank "
               "compute, modeled collectives)\",\n"
               "  \"cluster\": \"%s\",\n  \"systems\": [\n",
               cluster_name.c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SystemRecord& r = records[i];
    std::fprintf(f,
                 "    {\"system\": \"%s\", \"atoms\": %zu, \"nbf\": %zu, "
                 "\"total_compute_s\": %.6f, \"ranks\": [\n",
                 r.name.c_str(), r.atoms, r.nbf, r.total_compute_s);
    for (std::size_t p = 0; p < r.points.size(); ++p) {
      const RankPoint& pt = r.points[p];
      std::fprintf(f,
                   "      {\"ranks\": %d, \"compute_s\": %.6f, "
                   "\"replicated_s\": %.6f, \"comm_s\": %.6e, "
                   "\"efficiency\": %.4f, \"modeled_split\": %s}%s\n",
                   pt.ranks, pt.compute_s, pt.replicated_s, pt.comm_s,
                   pt.efficiency, pt.modeled_split ? "true" : "false",
                   p + 1 < r.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::string cluster_name = "default";
  std::string basis = "def2-svp";
  int size = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--cluster=", 10) == 0) {
      cluster_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--basis=", 8) == 0) {
      basis = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--size=", 7) == 0) {
      size = std::atoi(argv[i] + 7);
      if (size < 1) size = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig10_scaling [--json=PATH] "
                   "[--cluster=NAME] [--size=N] [--basis=NAME]\n");
      return 2;
    }
  }
  const ClusterModel cluster = cluster_model_from_name(cluster_name);

  std::printf("[Figure 10] Parallel efficiency of rank-sharded SCF "
              "(%s, cluster '%s')\n\n",
              basis.c_str(), cluster_name.c_str());

  std::vector<SystemRecord> records;
  for (int n = 1; n <= size; ++n) {
    const std::string name = "(gly)_" + std::to_string(n);
    records.push_back(
        run_system(name.c_str(), make_polyglycine(n), basis, cluster));
  }
  records.push_back(run_system("water_2", make_water_cluster(2, 7), basis,
                               cluster));

  for (const SystemRecord& r : records) {
    std::printf("%s: %zu atoms, %zu nbf, %.2f s single-rank JK compute\n",
                r.name.c_str(), r.atoms, r.nbf, r.total_compute_s);
    std::printf("%6s %12s %12s %12s %11s\n", "ranks", "compute s",
                "replicated s", "comm s", "efficiency");
    for (const RankPoint& p : r.points) {
      std::printf("%6d %12.4f %12.4f %12.3e %10.1f%%%s\n", p.ranks,
                  p.compute_s, p.replicated_s, p.comm_s, 100.0 * p.efficiency,
                  p.modeled_split ? "  (modeled split)" : "");
    }
    std::printf("\n");
  }
  std::printf("paper shape: >90%% efficiency within one node, ~70%% at 64 "
              "GPUs; the replicated diagonalization is the Amdahl term.\n");

  if (json_path != nullptr) write_json(json_path, records, cluster_name);
  return 0;
}
