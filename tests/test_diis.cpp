// DIIS extrapolation tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/backend.hpp"
#include "scf/diis.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

MatrixD random_matrix(std::size_t n, unsigned seed) {
  Rng rng(seed);
  MatrixD m(n, n);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1, 1);
  return m;
}

TEST(DiisTest, FirstCallReturnsRawFock) {
  std::vector<MatrixD> focks, errors;
  const MatrixD f = random_matrix(4, 1);
  const MatrixD e = random_matrix(4, 2);
  const MatrixD out = diis_extrapolate(focks, errors, f, e);
  EXPECT_LT(max_abs_diff(out, f), 1e-15);
  EXPECT_EQ(focks.size(), 1u);
  EXPECT_EQ(errors.size(), 1u);
}

TEST(DiisTest, ErrorNormIsMaxAbs) {
  MatrixD e(2, 2, 0.0);
  e(0, 1) = -0.25;
  e(1, 0) = 0.125;
  EXPECT_DOUBLE_EQ(diis_error_norm(e), 0.25);
}

TEST(DiisTest, ExactlyCancellingErrorsReproduceSolution) {
  // Two Fock matrices whose errors are exact negatives: DIIS must return
  // their midpoint (coefficients 0.5 / 0.5).
  std::vector<MatrixD> focks, errors;
  const MatrixD f1(3, 3, 1.0);
  const MatrixD f2(3, 3, 3.0);
  MatrixD e1(3, 3, 0.1);
  MatrixD e2(3, 3, -0.1);
  diis_extrapolate(focks, errors, f1, e1);
  const MatrixD out = diis_extrapolate(focks, errors, f2, e2);
  EXPECT_LT(max_abs_diff(out, MatrixD(3, 3, 2.0)), 1e-10);
}

TEST(DiisTest, HistoryBounded) {
  std::vector<MatrixD> focks, errors;
  for (int i = 0; i < 10; ++i) {
    const MatrixD f = random_matrix(3, 100 + i);
    MatrixD e = random_matrix(3, 200 + i);
    e *= 1.0 / (i + 1.0);
    const MatrixD out = diis_extrapolate(focks, errors, f, e, 3);
    EXPECT_TRUE(std::isfinite(frobenius_norm(out)));
    EXPECT_LE(focks.size(), 3u);
    EXPECT_EQ(focks.size(), errors.size());
  }
}

TEST(DiisTest, ClearedHistoryReturnsRawFock) {
  std::vector<MatrixD> focks, errors;
  diis_extrapolate(focks, errors, random_matrix(2, 1), random_matrix(2, 2));
  diis_extrapolate(focks, errors, random_matrix(2, 3), random_matrix(2, 4));
  focks.clear();  // what recovery rung 1 does
  errors.clear();
  const MatrixD f = random_matrix(2, 5);
  const MatrixD out = diis_extrapolate(focks, errors, f, random_matrix(2, 6));
  EXPECT_LT(max_abs_diff(out, f), 1e-15);  // history gone -> raw Fock
}

// A history loaded longer than max_vectors (a checkpoint from a run with a
// larger cap, or a hand-edited file) keeps only its newest pairs: the
// extrapolation equals the one over the trimmed history, bit for bit.
TEST(DiisTest, OverlongLoadedHistoryIsTrimmedToNewest) {
  std::vector<MatrixD> focks, errors;
  for (unsigned i = 0; i < 6; ++i) {
    focks.push_back(random_matrix(3, 300 + i));
    errors.push_back(random_matrix(3, 400 + i));
  }
  std::vector<MatrixD> newest_f(focks.end() - 2, focks.end());
  std::vector<MatrixD> newest_e(errors.end() - 2, errors.end());
  const MatrixD f = random_matrix(3, 7);
  const MatrixD e = random_matrix(3, 8);
  const MatrixD out = diis_extrapolate(focks, errors, f, e, 3);
  const MatrixD want = diis_extrapolate(newest_f, newest_e, f, e, 3);
  ASSERT_EQ(focks.size(), 3u);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(max_abs_diff(focks[0], newest_f[0]), 0.0);
  EXPECT_EQ(max_abs_diff(out, want), 0.0);
}

TEST(DiisErrorMatrixTest, ZeroAtSelfConsistency) {
  // If F and D commute through S (FDS == SDF), the DIIS error vanishes.
  const std::size_t n = 4;
  const MatrixD s = MatrixD::identity(n);
  const MatrixD x = MatrixD::identity(n);
  MatrixD f(n, n, 0.0);
  MatrixD d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    f(i, i) = i + 1.0;  // diagonal F and D commute
    d(i, i) = (i < 2) ? 2.0 : 0.0;
  }
  const MatrixD err = diis_error_matrix(f, d, s, x);
  EXPECT_LT(frobenius_norm(err), 1e-14);
}

TEST(DiisErrorMatrixTest, AntisymmetricStructure) {
  // FDS - SDF is antisymmetric for symmetric F, D, S; the orthonormal
  // projection preserves that.
  const MatrixD f = [&] {
    MatrixD m = random_matrix(5, 9);
    return MatrixD((m + m.transposed()) * 0.5);
  }();
  const MatrixD d = [&] {
    MatrixD m = random_matrix(5, 10);
    return MatrixD((m + m.transposed()) * 0.5);
  }();
  const MatrixD s = MatrixD::identity(5);
  const MatrixD err = diis_error_matrix(f, d, s, s);
  const MatrixD sum = err + err.transposed();
  EXPECT_LT(frobenius_norm(sum), 1e-12);
}

}  // namespace
}  // namespace mako
