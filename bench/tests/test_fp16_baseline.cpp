// Table 2's baseline FP16 kernel: the binary16 accumulator's failure mode,
// QuantMako's dual-stage FP16 kernels beating it on a contracted class, and
// Table 2's RMSE ordering across calibration batches.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "compilermako/registry.hpp"
#include "fp16_baseline.hpp"
#include "integrals/eri_reference.hpp"

namespace mako {
namespace {

TEST(QuantGemmTest, NaiveFp16AccumulatorStalls) {
  // Summing 4096 ones with a binary16 accumulator saturates at 2048 (adding
  // 1 to 2048 rounds back to 2048); the dual-stage kernel gets 4096.
  const int k = 4096;
  std::vector<double> a(k, 1.0), b(k, 1.0);
  std::vector<double> c(1, 0.0);
  gemm_fp16_naive(a.data(), b.data(), c.data(), 1, 1, k, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(c[0], 2048.0);
}

TEST(QuantGemmTest, NaiveFp16MatchesExactOnTinyProblems) {
  std::vector<double> a{1.0, 2.0}, b{0.5, 0.25};
  std::vector<double> c(1, 0.0);
  gemm_fp16_naive(a.data(), b.data(), c.data(), 1, 1, 2, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
}

/// Largest absolute deviation of `out` from the reference engine.
double worst_error(const CalibrationBatch& batch,
                   const std::vector<std::vector<double>>& out) {
  ReferenceEriEngine ref;
  std::vector<double> expected;
  double worst = 0.0;
  for (std::size_t q = 0; q < batch.quartets.size(); ++q) {
    const QuartetRef& r = batch.quartets[q];
    ref.compute(*r.a, *r.b, *r.c, *r.d, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      worst = std::max(worst, std::fabs(expected[i] - out[q][i]));
    }
  }
  return worst;
}

TEST(BatchedEriTest, DualStageAccumulationBeatsNaiveFp16) {
  // The Table-2 contrast: QuantMako's FP32 in-kernel accumulation must be
  // at least as accurate as the naive FP16-accumulator kernel on contracted
  // classes (where many partial sums accumulate).
  const EriClassKey key{2, 2, 2, 2, 4, 4};
  const CalibrationBatch batch = make_calibration_batch(key, 3, 21);
  const std::span<const QuartetRef> refs(batch.quartets);

  KernelConfig fp16;
  fp16.gemm.precision = Precision::kFP16;
  std::vector<std::vector<double>> dual, naive;
  BatchedEriEngine(fp16).compute_batch(key, refs, dual);
  baseline_fp16_batch(key, refs, naive);

  const double err_dual = worst_error(batch, dual);
  const double err_naive = worst_error(batch, naive);
  ASSERT_TRUE(std::isfinite(err_naive));  // no overflow: a real comparison
  EXPECT_LE(err_dual, err_naive * 1.2 + 1e-12);
}

/// RMSE of `out` against the reference engine over the batch.
double rmse(const CalibrationBatch& batch,
            const std::vector<std::vector<double>>& out) {
  ReferenceEriEngine ref;
  std::vector<double> expected;
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t q = 0; q < batch.quartets.size(); ++q) {
    const QuartetRef& r = batch.quartets[q];
    ref.compute(*r.a, *r.b, *r.c, *r.d, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const double d = out[q][i] - expected[i];
      acc += d * d;
      ++n;
    }
  }
  return std::sqrt(acc / static_cast<double>(n));
}

class RmseOrderingTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RmseOrderingTest, Table2Ordering) {
  // RMSE(FP32) < RMSE(QuantMako FP16) < RMSE(baseline FP16) — the
  // qualitative ordering of the paper's Table 2 — on the contracted classes
  // of bench_table2_quant_rmse, for several calibration batches.
  for (const EriClassKey& key :
       {EriClassKey{0, 0, 0, 0, 9, 9}, EriClassKey{1, 1, 1, 1, 4, 4}}) {
    const CalibrationBatch batch = make_calibration_batch(key, 8, GetParam());
    const std::span<const QuartetRef> refs(batch.quartets);
    const auto engine_rmse = [&](Precision p) {
      KernelConfig config;
      config.gemm.precision = p;
      std::vector<std::vector<double>> out;
      BatchedEriEngine(config).compute_batch(key, refs, out);
      return rmse(batch, out);
    };
    std::vector<std::vector<double>> naive;
    baseline_fp16_batch(key, refs, naive);
    const double e_fp32 = engine_rmse(Precision::kFP32);
    const double e_q = engine_rmse(Precision::kFP16);
    const double e_fp16 = rmse(batch, naive);
    EXPECT_LT(e_fp32, e_q) << key.name();
    EXPECT_LT(e_q, e_fp16) << key.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmseOrderingTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

}  // namespace
}  // namespace mako
