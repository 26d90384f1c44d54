// The per-quartet Fock baseline of Figs 8/9: it contracts to the dense J/K,
// agrees with FockBuilder on J/K, on the screened quartet set and on the
// energy at a converged density, and its QUICK role refuses g functions.
// Suite names match the library suites these tests came from, so the CI
// filters on ScfTest/FockTest still select them.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "eri_reference.hpp"
#include "integrals/one_electron.hpp"
#include "reference_fock.hpp"
#include "scf/fock.hpp"
#include "scf/scf.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

/// Brute-force J/K from the full ERI tensor (no symmetry, no screening).
void dense_jk(const BasisSet& basis, const MatrixD& d, MatrixD& j, MatrixD& k) {
  const std::size_t nbf = basis.nbf();
  j.resize(nbf, nbf, 0.0);
  k.resize(nbf, nbf, 0.0);
  ReferenceEriEngine eng;
  std::vector<double> v;
  const auto& shells = basis.shells();
  for (const Shell& sa : shells) {
    for (const Shell& sb : shells) {
      for (const Shell& sc : shells) {
        for (const Shell& sd : shells) {
          eng.compute(sa, sb, sc, sd, v);
          std::size_t idx = 0;
          for (int m = 0; m < sa.num_sph(); ++m) {
            for (int n = 0; n < sb.num_sph(); ++n) {
              for (int s = 0; s < sc.num_sph(); ++s) {
                for (int l = 0; l < sd.num_sph(); ++l, ++idx) {
                  const std::size_t im = sa.sph_offset + m;
                  const std::size_t in = sb.sph_offset + n;
                  const std::size_t is = sc.sph_offset + s;
                  const std::size_t il = sd.sph_offset + l;
                  j(im, in) += d(is, il) * v[idx];
                  k(im, is) += d(in, il) * v[idx];
                }
              }
            }
          }
        }
      }
    }
  }
}

MatrixD random_symmetric_density(std::size_t n, unsigned seed) {
  Rng rng(seed);
  MatrixD d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-0.5, 0.5);
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) d(i, i) += 1.0;
  return d;
}

IterationPolicy exact_policy() {
  IterationPolicy p;
  p.allow_quantized = false;
  p.fp64_threshold = 0.0;
  p.prune_threshold = 0.0;  // no screening: exact comparison
  return p;
}

TEST(FockEngineTest, BaselineMatchesDenseContraction) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 3);

  MatrixD j, k;
  const ReferenceFockStats stats =
      ReferenceFockBuilder(bs).build_jk(d, exact_policy(), j, k);
  EXPECT_EQ(stats.quartets_pruned, 0);
  EXPECT_GT(stats.seconds, 0.0);

  MatrixD jref, kref;
  dense_jk(bs, d, jref, kref);
  EXPECT_LT(max_abs_diff(j, jref), 1e-9);
  EXPECT_LT(max_abs_diff(k, kref), 1e-9);
}

TEST(FockTest, EnginesAgreeOn631G) {
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 7);

  MatrixD j1, k1, j2, k2;
  ReferenceFockBuilder(bs).build_jk(d, exact_policy(), j1, k1);
  FockBuilder(bs).build_jk(d, exact_policy(), j2, k2);
  EXPECT_LT(max_abs_diff(j1, j2), 1e-10);
  EXPECT_LT(max_abs_diff(k1, k2), 1e-10);
}

TEST(FockTest, BaselineRoutesTheSameQuartets) {
  // Screened and quantized policies, including the inverted-threshold edge
  // (fp64 below prune): the baseline computes every quartet FockBuilder
  // keeps, at FP64, and prunes the rest.
  const Molecule cluster = make_water_cluster(2, 5);
  const BasisSet bs(cluster, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 17);
  const ReferenceFockBuilder reference(bs);
  FockBuilder mako(bs);
  for (const double fp64_threshold : {1e-6, 1e-10, 1e-12}) {
    IterationPolicy p;
    p.allow_quantized = true;
    p.fp64_threshold = fp64_threshold;
    p.prune_threshold = 1e-10;
    for (const bool quantized : {true, false}) {
      p.allow_quantized = quantized;
      MatrixD j1, k1, j2, k2;
      const ReferenceFockStats ref = reference.build_jk(d, p, j1, k1);
      const FockStats got = mako.build_jk(d, p, j2, k2);
      EXPECT_EQ(ref.quartets_computed,
                got.quartets_fp64 + got.quartets_quantized)
          << fp64_threshold << " " << quantized;
      EXPECT_EQ(ref.quartets_pruned, got.quartets_pruned)
          << fp64_threshold << " " << quantized;
    }
  }
}

TEST(ScfTest, EnginesGiveIdenticalEnergies) {
  // At the converged water/STO-3G density, under the run's final policy,
  // the baseline's J/K and FockBuilder's give the same HF energy.
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ScfResult run = run_scf(w, bs, {});
  ASSERT_TRUE(run.converged);
  const IterationPolicy policy = final_policy(run);
  EXPECT_FALSE(policy.allow_quantized);

  const MatrixD h = core_hamiltonian(bs, w);
  const MatrixD& d = run.density;
  const auto energy = [&](const MatrixD& j, const MatrixD& k) {
    return w.nuclear_repulsion() + trace_product(d, h) +
           0.5 * trace_product(d, j) - 0.25 * trace_product(d, k);
  };
  MatrixD j1, k1, j2, k2;
  ReferenceFockBuilder(bs).build_jk(d, policy, j1, k1);
  FockBuilder(bs).build_jk(d, policy, j2, k2);
  const double e_reference = energy(j1, k1);
  EXPECT_NEAR(e_reference, energy(j2, k2), 1e-10);
  EXPECT_NEAR(e_reference, run.energy, 1e-6);  // the same fixed point
}

TEST(EriReferenceTest, QuickRoleRejectsGFunctions) {
  Molecule o;
  o.add_atom(8, 0, 0, 0);
  const BasisSet bs(o, "def2-qzvp");
  const Shell* g = nullptr;
  for (const Shell& s : bs.shells()) {
    if (s.l == 4) g = &s;
  }
  ASSERT_NE(g, nullptr);
  EXPECT_THROW((void)ReferenceFockBuilder(bs, kQuickMaxL), std::domain_error);
  EXPECT_NO_THROW((void)ReferenceFockBuilder(bs));
  ReferenceEriEngine full;
  std::vector<double> v;
  EXPECT_NO_THROW(full.compute(*g, *g, *g, *g, v));
}

TEST(ReferenceFockTest, BaselineIterationOnAFixedIterationRun) {
  // The Figs 8/9 protocol end to end on a small run, for both roles.
  const Molecule w = make_water();
  ScfOptions options;
  options.fixed_iterations = 2;
  const BasisSet small(w, "sto-3g");
  const ScfResult run = run_scf(w, small, options);
  for (const int max_l : {ReferenceEriEngine::kMaxL, kQuickMaxL}) {
    const BaselineIteration b = baseline_iteration(small, options, run, max_l);
    EXPECT_GT(b.mako_jk_s, 0.0);
    EXPECT_GT(b.mako_jk_serial_s, 0.0);
    EXPECT_GT(b.reference_jk_s, 0.0);
    EXPECT_DOUBLE_EQ(b.same_thread_jk_speedup(),
                     b.reference_jk_s / b.mako_jk_serial_s);
    EXPECT_DOUBLE_EQ(b.seconds, run.avg_iteration_seconds() - b.mako_jk_s +
                                    b.reference_jk_s);
  }
}

}  // namespace
}  // namespace mako
