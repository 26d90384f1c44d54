// Fock builder tests: J/K digestion against a brute-force dense contraction,
// screening behaviour, and quantized routing.  The per-quartet baseline's
// own tests live with it in bench/tests/test_reference_fock.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "eri_reference.hpp"
#include "scf/fock.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

/// Brute-force J/K from the full ERI tensor (no symmetry, no screening).
void dense_jk(const BasisSet& basis, const MatrixD& d, MatrixD& j, MatrixD& k) {
  const std::size_t nbf = basis.nbf();
  j.resize(nbf, nbf, 0.0);
  k.resize(nbf, nbf, 0.0);
  j.fill(0.0);
  k.fill(0.0);
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

TEST(FockEngineTest, MatchesDenseContraction) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 3);

  FockBuilder builder(bs);
  MatrixD j, k;
  builder.build_jk(d, exact_policy(), j, k);

  MatrixD jref, kref;
  dense_jk(bs, d, jref, kref);
  EXPECT_LT(max_abs_diff(j, jref), 1e-9);
  EXPECT_LT(max_abs_diff(k, kref), 1e-9);
}

TEST(FockTest, OutputsSymmetric) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 11);
  FockBuilder builder(bs, {});
  MatrixD j, k;
  builder.build_jk(d, exact_policy(), j, k);
  EXPECT_LT(max_abs_diff(j, j.transposed()), 1e-11);
  EXPECT_LT(max_abs_diff(k, k.transposed()), 1e-11);
}

TEST(FockTest, ScreeningPrunesWithoutDamage) {
  const Molecule cluster = make_water_cluster(2, 5);
  const BasisSet bs(cluster, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 1);

  FockBuilder builder(bs, {});
  MatrixD j1, k1, j2, k2;
  const FockStats exact = builder.build_jk(d, exact_policy(), j1, k1);

  IterationPolicy screened = exact_policy();
  screened.prune_threshold = 1e-12;
  const FockStats pruned = builder.build_jk(d, screened, j2, k2);

  EXPECT_GT(pruned.quartets_pruned, 0);
  EXPECT_LT(pruned.quartets_fp64, exact.quartets_fp64);
  EXPECT_LT(max_abs_diff(j1, j2), 1e-8);
  EXPECT_LT(max_abs_diff(k1, k2), 1e-8);
}

TEST(FockTest, QuantizedRoutingCountsQuartets) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 2);

  FockBuilder builder(bs, {});
  IterationPolicy policy;
  policy.allow_quantized = true;
  policy.fp64_threshold = 1e3;  // everything below -> quantized bucket
  policy.prune_threshold = 0.0;
  policy.quant_precision = Precision::kFP16;

  MatrixD j, k;
  const FockStats stats = builder.build_jk(d, policy, j, k);
  EXPECT_EQ(stats.quartets_fp64, 0);
  EXPECT_GT(stats.quartets_quantized, 0);

  // Fully quantized Fock must still be close to exact.
  MatrixD jref, kref;
  builder.build_jk(d, exact_policy(), jref, kref);
  EXPECT_LT(max_abs_diff(j, jref), 5e-3);
  EXPECT_LT(max_abs_diff(k, kref), 5e-3);
}

TEST(FockTest, StatsTimersPopulated) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 4);
  FockBuilder builder(bs, {});
  MatrixD j, k;
  const FockStats stats = builder.build_jk(d, exact_policy(), j, k);
  EXPECT_GT(stats.eri_seconds + stats.digest_seconds, 0.0);
  EXPECT_GT(stats.gemm_flops, 0.0);
  EXPECT_GT(stats.quartets_fp64, 0);
}

TEST(FockTest, SchwarzMatrixSymmetricNonNegative) {
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  FockBuilder builder(bs, {});
  const MatrixD& q = builder.schwarz();
  for (std::size_t i = 0; i < bs.num_shells(); ++i) {
    for (std::size_t j = 0; j < bs.num_shells(); ++j) {
      EXPECT_GE(q(i, j), 0.0);
      EXPECT_NEAR(q(i, j), q(j, i), 1e-12);
    }
  }
}

}  // namespace
}  // namespace mako
