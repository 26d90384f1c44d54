// GEMM kernel tests: correctness across shapes (direct and packed regimes,
// register-tile fringes) and the numerical contracts of the quantized
// (tensor-core-emulating) path.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "linalg/gemm.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

void naive_gemm(const std::vector<double>& a, const std::vector<double>& b,
                std::vector<double>& c, std::size_t m, std::size_t n,
                std::size_t k, double alpha, double beta) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = beta * c[i * n + j] + alpha * acc;
    }
  }
}

std::vector<double> random_buffer(std::size_t n, Rng& rng, double lo = -1.0,
                                  double hi = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

void naive_gemm_ex(const std::vector<double>& a, bool ta,
                   const std::vector<double>& b, bool tb,
                   std::vector<double>& c, std::size_t m, std::size_t n,
                   std::size_t k, double alpha, double beta) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = ta ? a[kk * m + i] : a[i * k + kk];
        const double bv = tb ? b[j * k + kk] : b[kk * n + j];
        acc += av * bv;
      }
      c[i * n + j] = beta * c[i * n + j] + alpha * acc;
    }
  }
}

// --- Parameterized over (m, n, k) ---------------------------------------------
//
// The shapes straddle the MR x NR register tile (fringes included) and both
// the direct (L1-resident) and the packed (panel-staged) dispatch; beta = 1
// checks accumulation into C.

using GemmParam = std::tuple<int, int, int>;

class GemmConfigTest : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmConfigTest, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 1000003 + n * 7919 + k * 13);
  const auto a = random_buffer(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_buffer(static_cast<std::size_t>(k) * n, rng);
  auto c = random_buffer(static_cast<std::size_t>(m) * n, rng);
  auto expected = c;

  gemm_fp64_ex(a.data(), false, b.data(), false, c.data(), m, n, k, 1.0, 1.0);
  naive_gemm(a, b, expected, m, n, k, 1.0, 1.0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-11) << "i=" << i;
  }
}

// The FP32 kernel under every quantized GEMM, over the same shapes, with A
// stored both ways (the ERI kernel's first GEMM reads E'_AB transposed).
// Products of FP16-rounded operands are exact in FP32, so the only error is
// FP32 accumulation: |err| <= gamma_k * sum_l |a_il| |b_lj|, u = 2^-24.
TEST_P(GemmConfigTest, QuantizedOpsMatchNaiveOnRoundedOperands) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 7919 + n * 13 + k * 1000003);
  const std::size_t mk = static_cast<std::size_t>(m) * k;
  const std::size_t kn = static_cast<std::size_t>(k) * n;
  const auto a = random_buffer(mk, rng);
  const auto b = random_buffer(kn, rng);
  const auto c0 = random_buffer(static_cast<std::size_t>(m) * n, rng);
  std::vector<float> qa(mk), qb(kn);
  quantize_to_float(a.data(), qa.data(), mk, Precision::kFP16);
  quantize_to_float(b.data(), qb.data(), kn, Precision::kFP16);
  const std::vector<double> ra(qa.begin(), qa.end());
  const std::vector<double> rb(qb.begin(), qb.end());

  const double u = std::ldexp(1.0, -24);
  const double gamma = k * u / (1.0 - k * u);
  for (const bool ta : {false, true}) {
    // A stored [K x M] when transposed.
    std::vector<float> qa_stored = qa;
    std::vector<double> ra_stored = ra;
    if (ta) {
      for (int i = 0; i < m; ++i) {
        for (int l = 0; l < k; ++l) {
          qa_stored[l * m + i] = qa[i * k + l];
          ra_stored[l * m + i] = ra[i * k + l];
        }
      }
    }
    auto c = c0;
    auto expected = c0;
    gemm_quantized_ops(qa_stored.data(), ta, qb.data(), false, c.data(), m, n,
                       k, 2.0, 1.0);
    naive_gemm_ex(ra_stored, ta, rb, false, expected, m, n, k, 2.0, 1.0);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double abs_sum = 0.0;
        for (int l = 0; l < k; ++l) {
          abs_sum += std::abs(ra[i * k + l] * rb[l * n + j]);
        }
        const std::size_t idx = static_cast<std::size_t>(i) * n + j;
        EXPECT_NEAR(c[idx], expected[idx], 2.0 * gamma * abs_sum + 1e-15)
            << "trans_a=" << ta << " i=" << i << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmConfigTest,
    ::testing::Values(GemmParam{1, 1, 1}, GemmParam{3, 5, 7},
                      GemmParam{17, 19, 23}, GemmParam{32, 32, 32},
                      GemmParam{50, 40, 60}, GemmParam{65, 65, 65},
                      GemmParam{128, 16, 33}, GemmParam{9, 81, 25}));

// --- Native-transpose entry point (packed + direct register-blocked paths) --

using GemmExParam = std::tuple<int, int, int, bool, bool>;

class GemmExTest : public ::testing::TestWithParam<GemmExParam> {};

TEST_P(GemmExTest, TransposeVariantsMatchNaive) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(m * 131 + n * 17 + k + (ta ? 1 : 0) + (tb ? 2 : 0));
  const auto a = random_buffer(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_buffer(static_cast<std::size_t>(k) * n, rng);
  auto c = random_buffer(static_cast<std::size_t>(m) * n, rng);
  auto expected = c;

  gemm_fp64_ex(a.data(), ta, b.data(), tb, c.data(), m, n, k, 1.5, 0.5);
  naive_gemm_ex(a, ta, b, tb, expected, m, n, k, 1.5, 0.5);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-11) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTranspose, GemmExTest,
    ::testing::Combine(
        // Shapes straddle both the direct (L1-resident) and the packed
        // (panel-staged) dispatch, fringe cases included.
        ::testing::Values(1, 5, 36, 130),  // m
        ::testing::Values(1, 10, 90),      // n
        ::testing::Values(1, 7, 90),       // k
        ::testing::Bool(),                 // trans_a
        ::testing::Bool()));               // trans_b

TEST(GemmTest, AlphaBetaSemantics) {
  Rng rng(5);
  const int m = 12, n = 9, k = 15;
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  auto c = random_buffer(m * n, rng);
  auto expected = c;
  gemm_fp64_ex(a.data(), false, b.data(), false, c.data(), m, n, k, -2.5,
               0.75);
  naive_gemm(a, b, expected, m, n, k, -2.5, 0.75);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expected[i], 1e-12);
}

TEST(GemmTest, BetaZeroIgnoresGarbage) {
  const int m = 4, n = 4, k = 4;
  std::vector<double> a(m * k, 1.0), b(k * n, 1.0);
  std::vector<double> c(m * n, std::nan(""));
  gemm_fp64_ex(a.data(), false, b.data(), false, c.data(), m, n, k, 1.0, 0.0);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(GemmTest, MatrixWrappers) {
  Rng rng(9);
  MatrixD a(6, 4), b(6, 5);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1, 1);
  // C = A^T * B.
  const MatrixD c = matmul(a, Trans::kYes, b, Trans::kNo);
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_EQ(c.cols(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < 6; ++kk) acc += a(kk, i) * b(kk, j);
      EXPECT_NEAR(c(i, j), acc, 1e-12);
    }
  }
}

// --- Quantized path ----------------------------------------------------------
//
// The double operands are rounded through the precision by quantize_to_float
// and multiplied through the default backend's `mixed` entry point, which
// accumulates at FP32 — the ERI engine's quantized GEMMs.

const GemmBackend& quantized_backend() {
  return resolve_gemm_backend(GemmBackendRegistry::kDefaultName);
}

/// c = a * b ([m x k] x [k x n]) on operands rounded through `p`.
void quantized_gemm(const std::vector<double>& a, const std::vector<double>& b,
                    std::vector<double>& c, std::size_t m, std::size_t n,
                    std::size_t k, Precision p) {
  std::vector<float> qa(m * k), qb(k * n);
  quantize_to_float(a.data(), qa.data(), m * k, p);
  quantize_to_float(b.data(), qb.data(), k * n, p);
  quantized_backend().mixed(qa.data(), false, qb.data(), false, c.data(), m,
                            n, k, 1.0, 0.0);
}

class QuantGemmTest : public ::testing::TestWithParam<Precision> {};

TEST_P(QuantGemmTest, ErrorWithinFormatBound) {
  const Precision prec = GetParam();
  Rng rng(42);
  const int m = 24, n = 20, k = 36;
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  std::vector<double> c(m * n, 0.0), expected(m * n, 0.0);

  quantized_gemm(a, b, c, m, n, k, prec);
  naive_gemm(a, b, expected, m, n, k, 1.0, 0.0);

  // Operand rounding error ~2^-11 (FP16/TF32) or 2^-24 (FP32), amplified by
  // the reduction length.
  const double eps = (prec == Precision::kFP32) ? std::ldexp(1.0, -24)
                                                : std::ldexp(1.0, -11);
  const double bound = 4.0 * eps * k;
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], bound);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, QuantGemmTest,
                         ::testing::Values(Precision::kFP32, Precision::kTF32,
                                           Precision::kFP16));

TEST(QuantGemmTest, Fp64PathIsExact) {
  Rng rng(1);
  const int m = 8, n = 8, k = 8;
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  std::vector<double> c(m * n, 0.0), expected(m * n, 0.0);
  quantized_backend().fp64(a.data(), false, b.data(), false, c.data(), m, n,
                           k);
  naive_gemm(a, b, expected, m, n, k, 1.0, 0.0);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expected[i], 1e-13);
}

TEST(QuantGemmTest, DualStageAccumulationBeatsNaiveFp16Sum) {
  // Summing many equal values: FP32 accumulation keeps them; an FP16
  // accumulator would stall once the partial sum dwarfs the addend.
  const int k = 4096;
  std::vector<double> a(k, 1.0), b(k, 1.0);  // 1 x k times k x 1
  std::vector<double> c(1, 0.0);
  quantized_gemm(a, b, c, 1, 1, k, Precision::kFP16);
  EXPECT_NEAR(c[0], 4096.0, 1.0);  // naive FP16 accumulation would give 2048
}

TEST(QuantGemmTest, Fp16OverflowsWithoutScaling) {
  // Large operands overflow binary16 on entry: this is exactly why
  // QuantMako's group scaling exists.
  std::vector<double> a(1, 1e6), b(1, 1e6);
  std::vector<double> c(1, 0.0);
  quantized_gemm(a, b, c, 1, 1, 1, Precision::kFP16);
  EXPECT_TRUE(std::isinf(c[0]));
}

TEST(GemmTest, FlopsCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

}  // namespace
}  // namespace mako
