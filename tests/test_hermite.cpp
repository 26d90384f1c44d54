// MMD machinery tests: Hermite index bases, E coefficients and r-integrals.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "integrals/boys.hpp"
#include "integrals/hermite.hpp"
#include "robust/audit.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

class HermiteBasisTest : public ::testing::TestWithParam<int> {};

TEST_P(HermiteBasisTest, SizeAndRoundTrip) {
  const int l = GetParam();
  const HermiteBasis& hb = HermiteBasis::get(l);
  EXPECT_EQ(hb.size(), nherm(l));
  for (int i = 0; i < hb.size(); ++i) {
    const auto& c = hb.component(i);
    EXPECT_LE(c[0] + c[1] + c[2], l);
    EXPECT_EQ(hb.index(c[0], c[1], c[2]), i);
  }
}

TEST_P(HermiteBasisTest, OrderedByTotalDegree) {
  const int l = GetParam();
  const HermiteBasis& hb = HermiteBasis::get(l);
  int prev = 0;
  for (int i = 0; i < hb.size(); ++i) {
    const auto& c = hb.component(i);
    const int n = c[0] + c[1] + c[2];
    EXPECT_GE(n, prev);
    prev = n;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, HermiteBasisTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16));

TEST_P(HermiteBasisTest, RecursionProgramReducesAlongFirstNonzeroAxis) {
  const int l = GetParam();
  const HermiteBasis& hb = HermiteBasis::get(l);
  const auto& prog = hb.recursion();
  ASSERT_EQ(static_cast<int>(prog.size()), hb.size());
  int rows = 0;
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    const auto& step = prog[h];
    EXPECT_EQ(step.order, c[0] + c[1] + c[2]);
    EXPECT_EQ(step.row, rows);  // packed rows: m = 1 .. L - |h| per component
    rows += l - step.order;
    if (h == 0) continue;
    const int axis = c[0] > 0 ? 0 : (c[1] > 0 ? 1 : 2);
    EXPECT_EQ(step.axis, axis);
    std::array<int, 3> lower = c;
    --lower[axis];
    EXPECT_EQ(step.idx1, hb.index(lower[0], lower[1], lower[2]));
    EXPECT_EQ(step.coeff, static_cast<double>(lower[axis]));
    if (lower[axis] == 0) {
      EXPECT_EQ(step.idx2, -1);
    } else {
      --lower[axis];
      EXPECT_EQ(step.idx2, hb.index(lower[0], lower[1], lower[2]));
    }
  }
  EXPECT_EQ(hb.recursion_rows(), rows);
}

TEST(HermiteBasisTest, ConcurrentGetIsStable) {
  // Lookups take no lock after the first build of an order; every thread
  // must still see one instance per order.
  constexpr int kThreads = 8;
  constexpr int kOrders = 17;
  std::vector<std::array<const HermiteBasis*, kOrders>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      for (int rep = 0; rep < 50; ++rep) {
        for (int i = 0; i < kOrders; ++i) {
          const int l = (i + t) % kOrders;  // threads race on different orders
          const HermiteBasis* hb = &HermiteBasis::get(l);
          if (rep == 0) seen[t][l] = hb;
          if (hb != seen[t][l] || hb->order() != l) seen[t][l] = nullptr;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int l = 0; l < kOrders; ++l) {
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][l], &HermiteBasis::get(l)) << "thread " << t << " l " << l;
    }
  }
}

TEST(HermiteBasisTest, OrderOutsideTheTableThrows) {
  EXPECT_THROW(HermiteBasis::get(-1), std::out_of_range);
  EXPECT_THROW(HermiteBasis::get(HermiteBasis::kMaxOrder + 1),
               std::out_of_range);
}

TEST(HermiteCountTest, Formula) {
  EXPECT_EQ(nherm(0), 1);
  EXPECT_EQ(nherm(1), 4);
  EXPECT_EQ(nherm(2), 10);
  EXPECT_EQ(nherm(16), 969);
}

TEST(Hermite1DTest, SShellIsPrefactor) {
  const Hermite1D e(0, 0, 0.3, -0.2, 1.5, 0.77);
  EXPECT_DOUBLE_EQ(e(0, 0, 0), 0.77);
}

TEST(Hermite1DTest, OutOfRangeIsZero) {
  const Hermite1D e(1, 1, 0.3, -0.2, 1.5, 1.0);
  EXPECT_DOUBLE_EQ(e(1, 1, 3), 0.0);  // t > i + j
}

TEST(Hermite1DTest, KnownPRecursion) {
  // E_0^{10} = XPA * E_0^{00}; E_1^{10} = 1/(2p) E_0^{00}.
  const double xpa = 0.37, p = 2.1, e00 = 0.9;
  const Hermite1D e(1, 0, xpa, -0.1, p, e00);
  EXPECT_NEAR(e(1, 0, 0), xpa * e00, 1e-14);
  EXPECT_NEAR(e(1, 0, 1), e00 / (2.0 * p), 1e-14);
}

TEST(Hermite1DTest, SumRuleGivesOverlapMoment) {
  // For same-center (xpa = xpb = 0, e00 = 1), E_0^{ij} is the Gaussian
  // moment <x^{i+j}> / <1> in Hermite form: E_0^{11} = 1/(2p).
  const double p = 1.7;
  const Hermite1D e(1, 1, 0.0, 0.0, p, 1.0);
  EXPECT_NEAR(e(1, 1, 0), 1.0 / (2.0 * p), 1e-14);
  // Odd moment vanishes.
  EXPECT_NEAR(e(1, 0, 0), 0.0, 1e-15);
}

TEST(PrimPairTest, GaussianProductTheorem) {
  const Vec3 a{0, 0, 0}, b{0, 0, 2.0};
  const auto pairs = make_prim_pairs(a, {1.0, 2.0}, {0.3, 0.7}, b, {0.5},
                                     {1.0});
  ASSERT_EQ(pairs.size(), 2u);
  const PrimPair& pp = pairs[0];  // (1.0, 0.5)
  EXPECT_DOUBLE_EQ(pp.p, 1.5);
  EXPECT_NEAR(pp.center[2], (1.0 * 0.0 + 0.5 * 2.0) / 1.5, 1e-14);
  EXPECT_NEAR(pp.kab, std::exp(-1.0 * 0.5 / 1.5 * 4.0), 1e-14);
  EXPECT_DOUBLE_EQ(pp.coef, 0.3);
}

TEST(EMatrixTest, SSshellSingleEntry) {
  MatrixD e;
  build_e_matrix(0, 0, {0, 0, 0}, {0, 0, 1.0}, 1.0, 1.0, 2.0, e);
  ASSERT_EQ(e.rows(), 1u);
  ASSERT_EQ(e.cols(), 1u);
  // coef * exp(-mu |AB|^2), mu = 0.5.
  EXPECT_NEAR(e(0, 0), 2.0 * std::exp(-0.5), 1e-13);
}

TEST(EMatrixTest, SparsityPattern) {
  // E(h, col) must vanish when any Hermite component exceeds the summed
  // Cartesian angular momentum on that axis.
  MatrixD e;
  build_e_matrix(1, 1, {0, 0, 0}, {0.5, -0.3, 0.8}, 1.2, 0.8, 1.0, e);
  const HermiteBasis& hb = HermiteBasis::get(2);
  // Column for (px, px): ax=1+1 on x, 0 elsewhere.
  const int col = 0 * 3 + 0;
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    if (c[1] > 0 || c[2] > 0) {
      EXPECT_EQ(e(h, col), 0.0) << h;
    }
  }
}

TEST(RIntegralTest, ZeroDistanceOddComponentsVanish) {
  // At PQ = 0 the Hermite Coulomb integrals with any odd t/u/v are zero by
  // symmetry.
  const int l = 6;
  const HermiteBasis& hb = HermiteBasis::get(l);
  std::vector<double> r(hb.size());
  compute_r_integrals(l, 0.8, {0, 0, 0}, 1.0, r.data());
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    if (c[0] % 2 || c[1] % 2 || c[2] % 2) {
      EXPECT_NEAR(r[h], 0.0, 1e-14) << h;
    }
  }
}

TEST(RIntegralTest, BaseValueIsBoys) {
  std::vector<double> r(nherm(0));
  const double alpha = 0.9;
  const Vec3 pq{0.3, -0.4, 0.5};
  const double t = alpha * 0.5;  // |pq|^2 = 0.5
  compute_r_integrals(0, alpha, pq, 3.0, r.data());
  EXPECT_NEAR(r[0], 3.0 * BoysTable::instance().value(0, t), 1e-13);
}

TEST(RIntegralTest, FirstDerivativeComponent) {
  // R_{100} = PQ_x * (-2 alpha) F_1(T).
  std::vector<double> r(nherm(1));
  const double alpha = 1.3;
  const Vec3 pq{0.7, 0.0, 0.0};
  compute_r_integrals(1, alpha, pq, 1.0, r.data());
  const double t = alpha * 0.49;
  const double f1 = BoysTable::instance().value(1, t);
  const int idx = HermiteBasis::get(1).index(1, 0, 0);
  EXPECT_NEAR(r[idx], 0.7 * (-2.0 * alpha) * f1, 1e-12);
}

TEST(RIntegralTest, AxisPermutationSymmetry) {
  // Swapping PQ components permutes the R components identically.
  const int l = 4;
  const HermiteBasis& hb = HermiteBasis::get(l);
  std::vector<double> r1(hb.size()), r2(hb.size());
  compute_r_integrals(l, 0.6, {0.3, 0.9, -0.2}, 1.0, r1.data());
  compute_r_integrals(l, 0.6, {0.9, 0.3, -0.2}, 1.0, r2.data());
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    const int swapped = hb.index(c[1], c[0], c[2]);
    EXPECT_NEAR(r1[h], r2[swapped], 1e-12 * std::max(1.0, std::fabs(r1[h])));
  }
}

TEST(RIntegralTest, SsssMatchesClosedForm) {
  // The full (ss|ss) primitive ERI has the closed form
  // 2 pi^{5/2} / (p q sqrt(p+q)) F_0(alpha |PQ|^2) (with unit prefactors
  // folded in here via `prefactor`).
  const double p = 1.1, q = 0.7;
  const double alpha = p * q / (p + q);
  const Vec3 pq{0.0, 0.0, 1.9};
  const double pref = 2.0 * std::pow(kPi, 2.5) / (p * q * std::sqrt(p + q));
  std::vector<double> r(1);
  compute_r_integrals(0, alpha, pq, pref, r.data());
  const double f0 = BoysTable::instance().value(0, alpha * 1.9 * 1.9);
  EXPECT_NEAR(r[0], pref * f0, 1e-13);
}

// --- Structure-of-arrays r-integrals ---------------------------------------

/// Item inputs, structure-of-arrays as compute_r_integrals_batch takes them.
struct RItems {
  std::vector<double> alpha, x, y, z, pref;

  void add(double a, const Vec3& pq, double p) {
    alpha.push_back(a);
    x.push_back(pq[0]);
    y.push_back(pq[1]);
    z.push_back(pq[2]);
    pref.push_back(p);
  }
  [[nodiscard]] std::size_t size() const { return alpha.size(); }
};

/// n items cycling through Boys arguments T = alpha |PQ|^2 of 0, either side
/// of the table/asymptotic crossover (32), large, and scattered in between.
RItems boys_regime_items(std::size_t n) {
  const double t_values[] = {0.0, 31.99, 32.0, 32.01, 1e3, 0.37, 7.3, 18.0};
  RItems items;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t_values[i % std::size(t_values)];
    const double alpha = 0.8 + 0.01 * static_cast<double>(i % 5);
    // Spread |PQ| over the three axes so every reduction axis is exercised.
    const double r = std::sqrt(t / alpha);
    const Vec3 pq{0.6 * r, -0.64 * r, 0.48 * r};
    items.add(alpha, pq, 1.0 + 0.125 * static_cast<double>(i));
  }
  return items;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(RIntegralTest, BatchMatchesSingleItemCallsBitwise) {
  RIntegralWorkspace ws;
  for (int l = 0; l <= 16; ++l) {
    const std::size_t nh = static_cast<std::size_t>(nherm(l));
    for (const std::size_t n :
         {std::size_t{1}, kRIntegralChunk - 1, kRIntegralChunk,
          kRIntegralChunk + 1}) {
      SCOPED_TRACE("L=" + std::to_string(l) + " n=" + std::to_string(n));
      const RItems items = boys_regime_items(n);
      const std::size_t stride = nh + 3;  // a non-packed stride too
      std::vector<double> out(n * stride, -1.0);
      compute_r_integrals_batch(l, n, items.alpha.data(), items.x.data(),
                                items.y.data(), items.z.data(),
                                items.pref.data(), out.data(), stride, ws);
      std::vector<double> one(nh);
      for (std::size_t i = 0; i < n; ++i) {
        compute_r_integrals(l, items.alpha[i],
                            {items.x[i], items.y[i], items.z[i]},
                            items.pref[i], one.data());
        for (std::size_t h = 0; h < nh; ++h) {
          ASSERT_TRUE(same_bits(out[i * stride + h], one[h]))
              << "item " << i << " h " << h << ": " << out[i * stride + h]
              << " vs " << one[h];
        }
      }
      // Row padding past the nh r-integrals is never written.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t h = nh; h < stride; ++h) {
          ASSERT_EQ(out[i * stride + h], -1.0);
        }
      }
    }
  }
}

TEST(RIntegralTest, PoisonedItemPoisonsOnlyItself) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const int l = 6;
  const std::size_t nh = static_cast<std::size_t>(nherm(l));
  const std::size_t n = kRIntegralChunk + 1;
  const RItems clean = boys_regime_items(n);
  std::vector<double> want(nh * n);
  RIntegralWorkspace ws;
  compute_r_integrals_batch(l, n, clean.alpha.data(), clean.x.data(),
                            clean.y.data(), clean.z.data(), clean.pref.data(),
                            want.data(), nh, ws);

  struct Poison {
    const char* what;
    void (*apply)(RItems&, std::size_t);
  };
  const Poison poisons[] = {
      {"NaN centre", [](RItems& it, std::size_t i) { it.y[i] = nan; }},
      {"zero alpha", [](RItems& it, std::size_t i) { it.alpha[i] = 0.0; }},
      {"negative alpha", [](RItems& it, std::size_t i) { it.alpha[i] = -1.0; }},
      {"infinite prefactor",
       [](RItems& it, std::size_t i) {
         it.pref[i] = std::numeric_limits<double>::infinity();
       }},
  };
  for (const Poison& poison : poisons) {
    for (const std::size_t bad : {std::size_t{0}, std::size_t{5}, n - 1}) {
      SCOPED_TRACE(std::string(poison.what) + " at item " +
                   std::to_string(bad));
      RItems items = clean;
      poison.apply(items, bad);
      std::vector<double> out(nh * n);
      const std::uint64_t faults = domain_fault_count();
      compute_r_integrals_batch(l, n, items.alpha.data(), items.x.data(),
                                items.y.data(), items.z.data(),
                                items.pref.data(), out.data(), nh, ws);
      EXPECT_EQ(domain_fault_count(), faults + 1);
      for (std::size_t h = 0; h < nh; ++h) {
        for (std::size_t i = 0; i < n; ++i) {
          if (i == bad) {
            ASSERT_TRUE(std::isnan(out[i * nh + h])) << "h " << h;
          } else {
            ASSERT_TRUE(same_bits(out[i * nh + h], want[i * nh + h]))
                << "item " << i << " h " << h;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mako
