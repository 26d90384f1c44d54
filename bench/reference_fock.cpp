#include "reference_fock.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/execution_context.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/fock.hpp"
#include "util/timer.hpp"

namespace mako {

ReferenceFockBuilder::ReferenceFockBuilder(const BasisSet& basis, int max_l)
    : basis_(basis) {
  if (basis.max_l() > max_l) {
    throw std::domain_error("reference Fock baseline: the basis has l = " +
                            std::to_string(basis.max_l()) +
                            " shells, above this role's cap of l = " +
                            std::to_string(max_l));
  }
  ThreadPool pool(default_pool_workers());
  plan_ = std::make_shared<const FockPlan>(basis, pool);
}

ReferenceFockStats ReferenceFockBuilder::build_jk(const MatrixD& density,
                                                  const IterationPolicy& policy,
                                                  MatrixD& j,
                                                  MatrixD& k) const {
  Timer wall;
  const auto& shells = basis_.shells();
  const std::size_t ns = shells.size();
  j.resize(basis_.nbf(), basis_.nbf(), 0.0);
  k.resize(basis_.nbf(), basis_.nbf(), 0.0);

  // Per-shell-pair density maxima, as FockBuilder computes them.
  MatrixD dmax(ns, ns, 0.0);
  double dmax_global = 0.0;
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      double m = 0.0;
      for (int i = 0; i < shells[a].num_sph(); ++i) {
        for (int jj = 0; jj < shells[b].num_sph(); ++jj) {
          m = std::max(m, std::fabs(density(shells[a].sph_offset + i,
                                            shells[b].sph_offset + jj)));
        }
      }
      dmax(a, b) = m;
      dmax_global = std::max(dmax_global, m);
    }
  }
  // A quartet is kept when its bound reaches the FP64 or the prune
  // threshold (classify_integral), i.e. the smaller of the two.
  const double min_keep =
      policy.allow_quantized
          ? std::min(policy.fp64_threshold, policy.prune_threshold)
          : policy.prune_threshold;
  const double dcap = std::max(dmax_global, 1e-30);

  ReferenceEriEngine engine;
  std::vector<double> v;
  ReferenceFockStats stats;
  const auto& pairs = plan_->pairs();
  for (std::size_t bi = 0; bi < pairs.size(); ++bi) {
    const FockShellPair& pb = pairs[bi];
    for (std::size_t ki = bi; ki < pairs.size(); ++ki) {
      const FockShellPair& pk = pairs[ki];
      // Pairs are sorted by descending bound: the rest of the row prunes.
      if (pb.q * pk.q * dcap < min_keep) break;
      // Canonical roles: the bra is the lexicographically greater pair.
      const FockShellPair* bra = &pb;
      const FockShellPair* ket = &pk;
      if (pk.i1 > pb.i1 || (pk.i1 == pb.i1 && pk.i2 > pb.i2)) {
        std::swap(bra, ket);
      }
      const std::size_t a = bra->i1, b = bra->i2;
      const std::size_t c = ket->i1, d = ket->i2;
      const double dw = std::max({dmax(a, b), dmax(c, d), dmax(a, c),
                                  dmax(a, d), dmax(b, c), dmax(b, d)});
      const double bound = bra->q * ket->q * std::max(dw, 1e-30);
      if (!(bound >= min_keep)) continue;
      const float weight =
          pb.self_weight * pk.self_weight * (bi == ki ? 0.5f : 1.0f);
      engine.compute(*bra->s1, *bra->s2, *ket->s1, *ket->s2, v);
      digest_quartet(density, j, k, *bra->s1, *bra->s2, *ket->s1, *ket->s2,
                     weight, v);
      ++stats.quartets_computed;
    }
  }
  stats.quartets_pruned =
      plan_->num_unique_quartets() - stats.quartets_computed;
  stats.seconds = wall.seconds();
  return stats;
}

IterationPolicy final_policy(const ScfResult& run) {
  IterationPolicy policy;
  if (!run.telemetry.empty()) {
    const obs::IterationTelemetry& last = run.telemetry.back();
    policy.allow_quantized = last.quantized_allowed;
    policy.fp64_threshold = last.fp64_threshold;
    policy.prune_threshold = last.prune_threshold;
  }
  return policy;
}

namespace {

/// Median of three calls of `sample` (each returns seconds).
template <typename Sample>
double median_of_3(const Sample& sample) {
  std::array<double, 3> s{sample(), sample(), sample()};
  std::sort(s.begin(), s.end());
  return s[1];
}

/// Median wall of 3 warm FockBuilder::build_jk calls on `ctx` (null: the
/// process context), after one untimed build warms the builder's scratch.
double mako_jk_seconds(const BasisSet& basis, const FockOptions& options,
                       const ExecutionContext* ctx, const MatrixD& density,
                       const IterationPolicy& policy) {
  const FockBuilder mako(basis, options, ctx);
  MatrixD j, k;
  mako.build_jk(density, policy, j, k);
  return median_of_3([&] {
    const Timer wall;
    mako.build_jk(density, policy, j, k);
    return wall.seconds();
  });
}

}  // namespace

BaselineIteration baseline_iteration(const BasisSet& basis,
                                     const ScfOptions& options,
                                     const ScfResult& run, int max_l) {
  const ReferenceFockBuilder reference(basis, max_l);
  const IterationPolicy policy = final_policy(run);
  BaselineIteration out;
  out.mako_jk_s =
      mako_jk_seconds(basis, options.fock, nullptr, run.density, policy);
  ThreadPool one_thread(1);
  const ExecutionContext serial(ExecutionContextOptions{.pool = &one_thread});
  out.mako_jk_serial_s =
      mako_jk_seconds(basis, options.fock, &serial, run.density, policy);
  MatrixD j, k;
  out.reference_jk_s = median_of_3(
      [&] { return reference.build_jk(run.density, policy, j, k).seconds; });
  out.seconds =
      run.avg_iteration_seconds() - out.mako_jk_s + out.reference_jk_s;
  return out;
}

}  // namespace mako
