// Fock builder tests: J/K digestion against a brute-force dense contraction,
// screening behaviour, and quantized routing.  The per-quartet baseline's
// own tests live with it in bench/tests/test_reference_fock.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "eri_reference.hpp"
#include "scf/fock.hpp"
#include "util/precision.hpp"
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

/// The digestion before the half-triangle form: all twelve updates per
/// integral (six blocks and their transposes), zero integrals skipped.
/// Kept as the oracle of digest_quartet + add_own_transpose.
void digest_twelve_writes(const MatrixD& d, MatrixD& j, MatrixD& k,
                          const Shell& sa, const Shell& sb, const Shell& sc,
                          const Shell& sd, double weight,
                          const std::vector<double>& v) {
  std::size_t idx = 0;
  for (int m = 0; m < sa.num_sph(); ++m) {
    for (int n = 0; n < sb.num_sph(); ++n) {
      for (int s = 0; s < sc.num_sph(); ++s) {
        for (int l = 0; l < sd.num_sph(); ++l, ++idx) {
          const double val = weight * v[idx];
          if (val == 0.0) continue;
          const std::size_t im = sa.sph_offset + m, in = sb.sph_offset + n,
                            is = sc.sph_offset + s, il = sd.sph_offset + l;
          const double jbra = 2.0 * d(is, il) * val;
          const double jket = 2.0 * d(im, in) * val;
          j(im, in) += jbra;
          j(in, im) += jbra;
          j(is, il) += jket;
          j(il, is) += jket;
          const double k1 = d(in, il) * val;
          const double k2 = d(im, il) * val;
          const double k3 = d(in, is) * val;
          const double k4 = d(im, is) * val;
          k(im, is) += k1;
          k(is, im) += k1;
          k(in, is) += k2;
          k(is, in) += k2;
          k(im, il) += k3;
          k(il, im) += k3;
          k(in, il) += k4;
          k(il, in) += k4;
        }
      }
    }
  }
}

bool exactly_symmetric(const MatrixD& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      if (m(r, c) != m(c, r)) return false;
    }
  }
  return true;
}

// Half-triangle digestion then one A + A^T equals the twelve-write loop to
// rounding, over every quartet of five shells (s, s, p, d, f of
// water/def2-TZVP): a == b, c == d, ab == cd and all-distinct quartets,
// random integrals and weights.
TEST(DigestTest, HalfTriangleMatchesTwelveWriteOracle) {
  const Molecule w = make_water();
  const BasisSet bs(w, "def2-tzvp");
  const auto& shells = bs.shells();
  std::vector<const Shell*> picked;
  int s_shells = 0;
  for (int l = 0; l <= 3; ++l) {
    for (const Shell& sh : shells) {
      if (sh.l != l) continue;
      picked.push_back(&sh);
      if (l != 0 || ++s_shells == 2) break;
    }
  }
  ASSERT_EQ(picked.size(), 5u);
  const MatrixD d = random_symmetric_density(bs.nbf(), 29);
  const std::size_t nbf = bs.nbf();
  MatrixD j(nbf, nbf, 0.0), k(nbf, nbf, 0.0);
  MatrixD j_ref(nbf, nbf, 0.0), k_ref(nbf, nbf, 0.0);
  Rng rng(31);
  std::vector<double> v;
  for (const Shell* a : picked) {
    for (const Shell* b : picked) {
      for (const Shell* c : picked) {
        for (const Shell* dd : picked) {
          v.resize(static_cast<std::size_t>(a->num_sph()) * b->num_sph() *
                   c->num_sph() * dd->num_sph());
          for (double& x : v) x = rng.uniform(-1.0, 1.0);
          const double weight = rng.uniform(0.1, 2.0);
          digest_quartet(d, j, k, *a, *b, *c, *dd, weight, v);
          digest_twelve_writes(d, j_ref, k_ref, *a, *b, *c, *dd, weight, v);
        }
      }
    }
  }
  add_own_transpose(j);
  add_own_transpose(k);
  EXPECT_TRUE(exactly_symmetric(j));
  EXPECT_TRUE(exactly_symmetric(k));
  EXPECT_LE(max_abs_diff(j, j_ref), 1e-14 * max_abs(j_ref.data(), j_ref.size()));
  EXPECT_LE(max_abs_diff(k, k_ref), 1e-14 * max_abs(k_ref.data(), k_ref.size()));
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
