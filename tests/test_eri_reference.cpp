// Reference ERI engine tests: literature anchors, permutation symmetry,
// Schwarz bounds and the QUICK-role angular momentum cap.
#include <gtest/gtest.h>

#include <cmath>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "compilermako/registry.hpp"
#include "integrals/eri_reference.hpp"
#include "integrals/schwarz.hpp"

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

TEST(SchwarzTest, BoundsAreValid) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD q = schwarz_bounds(bs);
  const auto& sh = bs.shells();
  ReferenceEriEngine eng;
  std::vector<double> v;
  for (std::size_t a = 0; a < sh.size(); ++a) {
    for (std::size_t b = 0; b < sh.size(); ++b) {
      for (std::size_t c = 0; c < sh.size(); ++c) {
        for (std::size_t d = 0; d < sh.size(); ++d) {
          eng.compute(sh[a], sh[b], sh[c], sh[d], v);
          double mx = 0.0;
          for (double x : v) mx = std::max(mx, std::fabs(x));
          EXPECT_LE(mx, q(a, b) * q(c, d) * (1.0 + 1e-9) + 1e-12);
        }
      }
    }
  }
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
