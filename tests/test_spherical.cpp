// Cartesian <-> solid-harmonic transformation tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "basis/spherical.hpp"
#include "parallel/thread_pool.hpp"

namespace mako {
namespace {

/// Analytic overlap of two Cartesian monomial Gaussians sharing a center and
/// exponent sum 2a = 1 (the a-dependence cancels in the normalization
/// ratios these tests probe): returns the double-factorial product or 0 for
/// odd powers.
double mono_overlap(int px, int py, int pz) {
  if (px % 2 || py % 2 || pz % 2) return 0.0;
  return double_factorial(px - 1) * double_factorial(py - 1) *
         double_factorial(pz - 1);
}

TEST(CartIndexTest, RoundTripAllL) {
  for (int l = 0; l <= 6; ++l) {
    for (int idx = 0; idx < ncart(l); ++idx) {
      int lx, ly, lz;
      cart_components(l, idx, lx, ly, lz);
      EXPECT_EQ(lx + ly + lz, l);
      EXPECT_EQ(cart_index(l, lx, ly, lz), idx);
    }
  }
}

TEST(CartIndexTest, CanonicalOrderForP) {
  // l=1: x, y, z.
  int lx, ly, lz;
  cart_components(1, 0, lx, ly, lz);
  EXPECT_EQ(lx, 1);
  cart_components(1, 1, lx, ly, lz);
  EXPECT_EQ(ly, 1);
  cart_components(1, 2, lx, ly, lz);
  EXPECT_EQ(lz, 1);
}

TEST(CountTest, Dimensions) {
  EXPECT_EQ(ncart(0), 1);
  EXPECT_EQ(ncart(1), 3);
  EXPECT_EQ(ncart(2), 6);
  EXPECT_EQ(ncart(3), 10);
  EXPECT_EQ(ncart(4), 15);
  EXPECT_EQ(nsph(0), 1);
  EXPECT_EQ(nsph(4), 9);
}

TEST(DoubleFactorialTest, Values) {
  EXPECT_DOUBLE_EQ(double_factorial(-1), 1.0);
  EXPECT_DOUBLE_EQ(double_factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(double_factorial(1), 1.0);
  EXPECT_DOUBLE_EQ(double_factorial(5), 15.0);
  EXPECT_DOUBLE_EQ(double_factorial(7), 105.0);
}

class CartToSphTest : public ::testing::TestWithParam<int> {};

TEST_P(CartToSphTest, Shape) {
  const int l = GetParam();
  const MatrixD& c = cart_to_sph(l);
  EXPECT_EQ(c.rows(), static_cast<std::size_t>(nsph(l)));
  EXPECT_EQ(c.cols(), static_cast<std::size_t>(ncart(l)));
}

TEST_P(CartToSphTest, RowsOrthogonalUnderGaussianMetric) {
  // Real solid harmonics of the same l are orthogonal on the sphere; the
  // Gaussian radial weight preserves that.
  const int l = GetParam();
  const MatrixD& c = cart_to_sph(l);
  for (int m1 = 0; m1 < nsph(l); ++m1) {
    for (int m2 = 0; m2 < m1; ++m2) {
      double dot = 0.0;
      for (int i = 0; i < ncart(l); ++i) {
        int ax, ay, az;
        cart_components(l, i, ax, ay, az);
        for (int j = 0; j < ncart(l); ++j) {
          int bx, by, bz;
          cart_components(l, j, bx, by, bz);
          dot += c(m1, i) * c(m2, j) * mono_overlap(ax + bx, ay + by, az + bz);
        }
      }
      EXPECT_NEAR(dot, 0.0, 1e-10) << "l=" << l << " m=" << m1 << "," << m2;
    }
  }
}

TEST_P(CartToSphTest, RowsNormalizedLikeXl) {
  // Every spherical component must carry the same Gaussian self-overlap as
  // the x^l Cartesian (that is what makes diag(S) == 1 downstream).
  const int l = GetParam();
  const MatrixD& c = cart_to_sph(l);
  const double ref = double_factorial(2 * l - 1);
  for (int m = 0; m < nsph(l); ++m) {
    double self = 0.0;
    for (int i = 0; i < ncart(l); ++i) {
      int ax, ay, az;
      cart_components(l, i, ax, ay, az);
      for (int j = 0; j < ncart(l); ++j) {
        int bx, by, bz;
        cart_components(l, j, bx, by, bz);
        self += c(m, i) * c(m, j) * mono_overlap(ax + bx, ay + by, az + bz);
      }
    }
    EXPECT_NEAR(self / ref, 1.0, 1e-12) << "l=" << l << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(AngularMomenta, CartToSphTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

TEST(CartToSphTest, KnownD0Shape) {
  // m=0 row of l=2 must be proportional to 2z^2 - x^2 - y^2.
  const MatrixD& c = cart_to_sph(2);
  const int ixx = cart_index(2, 2, 0, 0);
  const int iyy = cart_index(2, 0, 2, 0);
  const int izz = cart_index(2, 0, 0, 2);
  const int m0 = 2;  // rows ordered m = -2..2
  EXPECT_NEAR(c(m0, ixx), c(m0, iyy), 1e-13);
  EXPECT_NEAR(c(m0, izz), -2.0 * c(m0, ixx), 1e-12);
}

TEST(CartToSphTest, PShellIsPermutation) {
  // l=1 rows are y, z, x (m=-1, 0, +1) with unit coefficients.
  const MatrixD& c = cart_to_sph(1);
  EXPECT_NEAR(c(0, cart_index(1, 0, 1, 0)), 1.0, 1e-13);
  EXPECT_NEAR(c(1, cart_index(1, 0, 0, 1)), 1.0, 1e-13);
  EXPECT_NEAR(c(2, cart_index(1, 1, 0, 0)), 1.0, 1e-13);
}

TEST(CartToSphPairTest, KroneckerStructure) {
  const MatrixD& pair = cart_to_sph_pair(1, 2);
  const MatrixD& c1 = cart_to_sph(1);
  const MatrixD& c2 = cart_to_sph(2);
  EXPECT_EQ(pair.rows(), c1.rows() * c2.rows());
  EXPECT_EQ(pair.cols(), c1.cols() * c2.cols());
  EXPECT_NEAR(pair(0 * 5 + 1, 1 * 6 + 2), c1(0, 1) * c2(1, 2), 1e-14);
}

TEST(CartToSphPairTest, OutOfRangeThrows) {
  EXPECT_THROW((void)cart_to_sph(kMaxSphL + 1), std::out_of_range);
  EXPECT_THROW((void)cart_to_sph(-1), std::out_of_range);
  EXPECT_THROW((void)cart_to_sph_pair(0, kMaxBasisL + 1), std::out_of_range);
}

TEST(SphericalTest, ConcurrentLookupsShareOneTable) {
  // Pool threads look every table up at once (under ctest, this process's
  // first lookups); each must see the caller's matrix at the caller's
  // address.
  constexpr int kPairs = (kMaxBasisL + 1) * (kMaxBasisL + 1);
  constexpr std::size_t kTasks = 64;
  struct Seen {
    std::vector<const MatrixD*> addr;
    std::vector<std::vector<double>> values;
  };
  std::vector<Seen> seen(kTasks);
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t t) {
    for (int i = 0; i <= kMaxSphL + kPairs; ++i) {
      const MatrixD& m =
          i <= kMaxSphL
              ? cart_to_sph(i)
              : cart_to_sph_pair((i - kMaxSphL - 1) / (kMaxBasisL + 1),
                                 (i - kMaxSphL - 1) % (kMaxBasisL + 1));
      seen[t].addr.push_back(&m);
      seen[t].values.emplace_back(m.data(), m.data() + m.size());
    }
  });
  for (int i = 0; i <= kMaxSphL + kPairs; ++i) {
    const MatrixD& m =
        i <= kMaxSphL
            ? cart_to_sph(i)
            : cart_to_sph_pair((i - kMaxSphL - 1) / (kMaxBasisL + 1),
                               (i - kMaxSphL - 1) % (kMaxBasisL + 1));
    for (std::size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(seen[t].addr[i], &m) << "task " << t << " table " << i;
      ASSERT_EQ(seen[t].values[i].size(), m.size());
      EXPECT_EQ(std::memcmp(seen[t].values[i].data(), m.data(),
                            m.size() * sizeof(double)),
                0)
          << "task " << t << " table " << i;
    }
  }
}

}  // namespace
}  // namespace mako
