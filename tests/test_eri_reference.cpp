// Reference ERI engine tests: literature anchors, permutation symmetry, the
// Fock plan's KernelMako Schwarz bounds checked against it, and the
// QUICK-role angular momentum cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "compilermako/registry.hpp"
#include "eri_reference.hpp"
#include "scf/fock.hpp"

namespace mako {
namespace {

Molecule h2_molecule() {
  Molecule m;
  m.add_atom(1, 0, 0, 0);
  m.add_atom(1, 0, 0, 1.4);
  return m;
}

TEST(EriReferenceTest, H2IntegralsMatchSzaboOstlund) {
  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  const auto& sh = bs.shells();
  ReferenceEriEngine eng;
  std::vector<double> v;

  eng.compute(sh[0], sh[0], sh[0], sh[0], v);
  EXPECT_NEAR(v[0], 0.7746, 1e-4);
  eng.compute(sh[0], sh[0], sh[1], sh[1], v);
  EXPECT_NEAR(v[0], 0.5697, 1e-4);
  eng.compute(sh[0], sh[1], sh[0], sh[1], v);
  EXPECT_NEAR(v[0], 0.2970, 1e-4);
  eng.compute(sh[0], sh[0], sh[0], sh[1], v);
  EXPECT_NEAR(v[0], 0.4441, 1e-4);
}

// Permutation symmetry sweep across angular momentum classes.
struct PermParam {
  int la, lb, lc, ld;
};

class EriPermutationTest : public ::testing::TestWithParam<PermParam> {};

TEST_P(EriPermutationTest, EightFoldSymmetry) {
  const auto [la, lb, lc, ld] = GetParam();
  EriClassKey key{la, lb, lc, ld, 2, 2};
  const CalibrationBatch batch = make_calibration_batch(key, 1, 77);
  const Shell& a = *batch.quartets[0].a;
  const Shell& b = *batch.quartets[0].b;
  const Shell& c = *batch.quartets[0].c;
  const Shell& d = *batch.quartets[0].d;
  ReferenceEriEngine eng;

  std::vector<double> abcd, bacd, abdc, cdab;
  eng.compute(a, b, c, d, abcd);
  eng.compute(b, a, c, d, bacd);
  eng.compute(a, b, d, c, abdc);
  eng.compute(c, d, a, b, cdab);

  const int na = 2 * la + 1, nb = 2 * lb + 1, nc = 2 * lc + 1,
            nd = 2 * ld + 1;
  double scale = 0.0;
  for (double v : abcd) scale = std::max(scale, std::fabs(v));
  const double tol = std::max(scale, 1e-6) * 1e-9;

  for (int i = 0; i < na; ++i) {
    for (int j = 0; j < nb; ++j) {
      for (int k = 0; k < nc; ++k) {
        for (int l = 0; l < nd; ++l) {
          const double ref = abcd[((i * nb + j) * nc + k) * nd + l];
          EXPECT_NEAR(bacd[((j * na + i) * nc + k) * nd + l], ref, tol);
          EXPECT_NEAR(abdc[((i * nb + j) * nd + l) * nc + k], ref, tol);
          EXPECT_NEAR(cdab[((k * nd + l) * na + i) * nb + j], ref, tol);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, EriPermutationTest,
    ::testing::Values(PermParam{0, 0, 0, 0}, PermParam{1, 0, 1, 0},
                      PermParam{1, 1, 1, 1}, PermParam{2, 1, 1, 0},
                      PermParam{2, 2, 2, 2}, PermParam{3, 2, 1, 0},
                      PermParam{3, 3, 0, 0}, PermParam{4, 0, 4, 0}));

TEST(EriReferenceTest, DiagonalQuartetsNonNegative) {
  // (ab|ab) >= 0 — Cauchy-Schwarz positivity of the Coulomb metric.
  for (int la = 0; la <= 3; ++la) {
    for (int lb = 0; lb <= la; ++lb) {
      EriClassKey key{la, lb, la, lb, 1, 1};
      const CalibrationBatch batch = make_calibration_batch(key, 1, la * 8 + lb);
      const Shell& a = *batch.quartets[0].a;
      const Shell& b = *batch.quartets[0].b;
      ReferenceEriEngine eng;
      std::vector<double> v;
      eng.compute(a, b, a, b, v);
      const int nab = (2 * la + 1) * (2 * lb + 1);
      for (int i = 0; i < nab; ++i) {
        EXPECT_GE(v[i * nab + i], -1e-12) << "la=" << la << " lb=" << lb;
      }
    }
  }
}

/// Reference max |(ab|cd)| over the spherical block.
double reference_block_max(ReferenceEriEngine& eng, const Shell& a,
                           const Shell& b, const Shell& c, const Shell& d) {
  std::vector<double> v;
  eng.compute(a, b, c, d, v);
  double mx = 0.0;
  for (double x : v) mx = std::max(mx, std::fabs(x));
  return mx;
}

// The Fock plan's KernelMako bounds hold for the reference integrals: every
// quartet of water/STO-3G and every symmetry-unique quartet of
// water/def2-TZVP (d and f shells).
TEST(SchwarzTest, BoundsAreValid) {
  const Molecule w = make_water();
  ReferenceEriEngine eng;
  const auto check = [&](const BasisSet& bs, const MatrixD& q, std::size_t a,
                         std::size_t b, std::size_t c, std::size_t d) {
    const auto& sh = bs.shells();
    EXPECT_LE(reference_block_max(eng, sh[a], sh[b], sh[c], sh[d]),
              q(a, b) * q(c, d) * (1.0 + 1e-12))
        << "(" << a << "," << b << "|" << c << "," << d << ")";
  };

  const BasisSet sto(w, "sto-3g");
  const MatrixD q_sto = FockBuilder(sto).schwarz();
  const std::size_t ns = sto.num_shells();
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      for (std::size_t c = 0; c < ns; ++c) {
        for (std::size_t d = 0; d < ns; ++d) check(sto, q_sto, a, b, c, d);
      }
    }
  }

  const BasisSet tzvp(w, "def2-tzvp");
  const MatrixD q_tzvp = FockBuilder(tzvp).schwarz();
  const std::size_t nt = tzvp.num_shells();
  for (std::size_t a = 0; a < nt; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      for (std::size_t c = 0; c <= a; ++c) {
        for (std::size_t d = 0; d <= (c == a ? b : c); ++d) {
          check(tzvp, q_tzvp, a, b, c, d);
        }
      }
    }
  }
}

// Q_ab^2 is the reference max |(ab|ab)| to 1e-12 relative.  Below
// Q_ab = 1e-100 the diagonal integral is subnormal and the two engines round
// it differently, so those pairs are out of scope.
TEST(SchwarzTest, PlanBoundsMatchReferenceDiagonal) {
  const Molecule w = make_water_cluster(3);
  const BasisSet bs(w, "def2-tzvp");
  const FockBuilder builder(bs);
  ReferenceEriEngine eng;
  std::size_t checked = 0;
  for (const FockShellPair& p : builder.plan().pairs()) {
    if (p.q < 1e-100) continue;
    const double ref = reference_block_max(eng, *p.s1, *p.s2, *p.s1, *p.s2);
    EXPECT_NEAR(p.q * p.q, ref, 1e-12 * ref)
        << "pair (" << p.i1 << "," << p.i2 << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(SchwarzTest, ClassifierThresholds) {
  EXPECT_EQ(classify_integral(1e-2, 1e-4, 1e-11), IntegralClass::kFull);
  EXPECT_EQ(classify_integral(1e-6, 1e-4, 1e-11), IntegralClass::kQuantized);
  EXPECT_EQ(classify_integral(1e-13, 1e-4, 1e-11), IntegralClass::kPruned);
}

TEST(EriReferenceTest, FlopEstimateGrowsWithAngularMomentum) {
  const double f_ss = ReferenceEriEngine::quartet_flop_estimate(0, 0, 0, 0, 1, 1);
  const double f_dd = ReferenceEriEngine::quartet_flop_estimate(2, 2, 2, 2, 1, 1);
  const double f_gg = ReferenceEriEngine::quartet_flop_estimate(4, 4, 4, 4, 1, 1);
  EXPECT_LT(f_ss, f_dd);
  EXPECT_LT(f_dd, f_gg);
  // Contraction scales multiplicatively.
  EXPECT_NEAR(ReferenceEriEngine::quartet_flop_estimate(1, 1, 1, 1, 5, 5) /
                  ReferenceEriEngine::quartet_flop_estimate(1, 1, 1, 1, 1, 1),
              25.0, 1e-9);
}

}  // namespace
}  // namespace mako
