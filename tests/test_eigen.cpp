// Symmetric eigensolver, orthogonalization and linear-solver tests.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/backend.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

MatrixD random_symmetric(std::size_t n, Rng& rng) {
  MatrixD m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

MatrixD random_spd(std::size_t n, Rng& rng) {
  MatrixD m = random_symmetric(n, rng);
  MatrixD spd = matmul(m, Trans::kYes, m, Trans::kNo);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += n;
  return spd;
}

class EighTest : public ::testing::TestWithParam<int> {};

TEST_P(EighTest, ReconstructsMatrix) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(n * 31 + 1);
  const MatrixD a = random_symmetric(n, rng);
  const EigenResult es = eigh(a);

  ASSERT_EQ(es.eigenvalues.size(), n);
  // Ascending order.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(es.eigenvalues[i - 1], es.eigenvalues[i] + 1e-12);
  }
  // Orthonormal eigenvectors: V^T V = I.
  const MatrixD vtv =
      matmul(es.eigenvectors, Trans::kYes, es.eigenvectors, Trans::kNo);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
  // A V = V diag(w).
  const MatrixD av = matmul(a, es.eigenvectors);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av(i, j), es.eigenvectors(i, j) * es.eigenvalues[j], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(EighTest, DiagonalMatrix) {
  MatrixD d(3, 3, 0.0);
  d(0, 0) = 3.0;
  d(1, 1) = -1.0;
  d(2, 2) = 2.0;
  const EigenResult es = eigh(d);
  EXPECT_NEAR(es.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(es.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(es.eigenvalues[2], 3.0, 1e-12);
}

TEST(EighTest, ThrowsOnNonSquare) {
  EXPECT_THROW(eigh(MatrixD(2, 3)), std::invalid_argument);
}

TEST(InverseSqrtTest, SquaresToInverse) {
  Rng rng(23);
  const std::size_t n = 12;
  const MatrixD s = random_spd(n, rng);
  const MatrixD x = inverse_sqrt(s);
  ASSERT_EQ(x.cols(), n);  // full rank: Loewdin square form
  // X^T S X = I.
  const MatrixD xsx = matmul(matmul(x, Trans::kYes, s, Trans::kNo), x);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(xsx(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(InverseSqrtTest, DropsLinearDependence) {
  // Rank-deficient overlap: two identical basis functions.
  MatrixD s(3, 3, 0.0);
  s(0, 0) = s(1, 1) = 1.0;
  s(0, 1) = s(1, 0) = 1.0;  // exactly dependent pair
  s(2, 2) = 1.0;
  const MatrixD x = inverse_sqrt(s, 1e-8);
  EXPECT_EQ(x.cols(), 2u);  // one vector dropped
  const MatrixD xsx = matmul(matmul(x, Trans::kYes, s, Trans::kNo), x);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(xsx(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(CholeskyTest, FactorizesSpd) {
  Rng rng(3);
  const std::size_t n = 10;
  const MatrixD a = random_spd(n, rng);
  MatrixD l = a;
  ASSERT_TRUE(cholesky(l));
  const MatrixD llt = matmul(l, Trans::kNo, l, Trans::kYes);
  EXPECT_LT(max_abs_diff(llt, a), 1e-9);
}

TEST(CholeskyTest, RejectsIndefinite) {
  MatrixD m(2, 2, 0.0);
  m(0, 0) = 1.0;
  m(1, 1) = -1.0;
  EXPECT_FALSE(cholesky(m));
}

TEST(SolveTest, SpdSolve) {
  Rng rng(77);
  const std::size_t n = 15;
  const MatrixD a = random_spd(n, rng);
  VectorD b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const VectorD x = solve_spd(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(SolveTest, LuSolveIndefinite) {
  // DIIS B matrices are symmetric indefinite; LU must handle them.
  MatrixD b(3, 3, 0.0);
  b(0, 0) = 1e-8;
  b(0, 1) = b(1, 0) = 2e-8;
  b(1, 1) = 5e-8;
  b(0, 2) = b(2, 0) = -1.0;
  b(1, 2) = b(2, 1) = -1.0;
  VectorD rhs{0.0, 0.0, -1.0};
  const VectorD x = solve_lu(b, rhs);
  double r0 = b(0, 0) * x[0] + b(0, 1) * x[1] + b(0, 2) * x[2];
  EXPECT_NEAR(r0, 0.0, 1e-12);
  EXPECT_NEAR(x[0] + x[1], 1.0, 1e-9);  // constraint row
}

TEST(SolveTest, LuThrowsOnSingular) {
  MatrixD s(2, 2, 1.0);  // rank 1
  EXPECT_THROW(solve_lu(s, VectorD{1.0, 2.0}), std::runtime_error);
}

}  // namespace
}  // namespace mako
