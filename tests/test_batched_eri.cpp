// KernelMako batched-engine tests: agreement with the reference engine
// across ERI classes and precisions, plus the quantized execution
// contracts.
#include <gtest/gtest.h>

#include <cmath>

#include "compilermako/registry.hpp"
#include "eri_reference.hpp"
#include "kernelmako/batched_eri.hpp"

namespace mako {
namespace {

double compare_batch_to_reference(const EriClassKey& key,
                                  const KernelConfig& config,
                                  std::size_t batch_size, unsigned seed) {
  const CalibrationBatch batch = make_calibration_batch(key, batch_size, seed);
  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets), out);

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

struct ClassParam {
  int la, lb, lc, ld, kab, kcd;
};

class BatchedClassTest : public ::testing::TestWithParam<ClassParam> {};

TEST_P(BatchedClassTest, MatchesReferenceFp64) {
  const auto [la, lb, lc, ld, kab, kcd] = GetParam();
  const EriClassKey key{la, lb, lc, ld, kab, kcd};
  KernelConfig config;
  EXPECT_LT(compare_batch_to_reference(key, config, 3, 5), 1e-11)
      << key.name();
}

TEST_P(BatchedClassTest, QuantizedErrorBounded) {
  const auto [la, lb, lc, ld, kab, kcd] = GetParam();
  const EriClassKey key{la, lb, lc, ld, kab, kcd};
  KernelConfig config;
  config.gemm.precision = Precision::kFP16;
  // FP16-with-group-scaling kernels stay within ~1e-2 absolute of FP64 on
  // normalized quartets (Table-2 scale errors).
  EXPECT_LT(compare_batch_to_reference(key, config, 3, 5), 2e-2)
      << key.name();
}

TEST_P(BatchedClassTest, Fp32ErrorBounded) {
  const auto [la, lb, lc, ld, kab, kcd] = GetParam();
  const EriClassKey key{la, lb, lc, ld, kab, kcd};
  KernelConfig config;
  config.gemm.precision = Precision::kFP32;
  // binary32 operands (2^-24 relative) with FP32 accumulation.
  EXPECT_LT(compare_batch_to_reference(key, config, 3, 5), 1e-5)
      << key.name();
}

TEST_P(BatchedClassTest, Tf32ErrorBounded) {
  const auto [la, lb, lc, ld, kab, kcd] = GetParam();
  const EriClassKey key{la, lb, lc, ld, kab, kcd};
  KernelConfig config;
  config.gemm.precision = Precision::kTF32;
  // TF32 keeps FP16's 10-bit mantissa, so FP16's bound holds.
  EXPECT_LT(compare_batch_to_reference(key, config, 3, 5), 2e-2)
      << key.name();
}

INSTANTIATE_TEST_SUITE_P(
    Classes, BatchedClassTest,
    ::testing::Values(ClassParam{0, 0, 0, 0, 1, 1}, ClassParam{0, 0, 0, 0, 9, 9},
                      ClassParam{1, 0, 1, 0, 2, 2}, ClassParam{1, 1, 1, 1, 1, 1},
                      ClassParam{1, 1, 1, 1, 4, 4}, ClassParam{2, 1, 1, 0, 2, 1},
                      ClassParam{2, 2, 2, 2, 1, 1}, ClassParam{3, 2, 1, 0, 1, 2},
                      ClassParam{3, 3, 3, 3, 1, 1}, ClassParam{4, 4, 4, 4, 1, 1},
                      ClassParam{4, 0, 2, 2, 1, 1},
                      ClassParam{1, 1, 0, 0, 4, 2}));

TEST(BatchedEriTest, ClassifyReadsShells) {
  const EriClassKey key{2, 1, 1, 0, 6, 3};
  const CalibrationBatch batch = make_calibration_batch(key, 1, 1);
  const EriClassKey derived = BatchedEriEngine::classify(batch.quartets[0]);
  EXPECT_EQ(derived, key);
}

TEST(BatchedEriTest, HeterogeneousBatchRejected) {
  const CalibrationBatch b1 =
      make_calibration_batch(EriClassKey{1, 1, 1, 1, 1, 1}, 1, 1);
  const EriClassKey wrong{2, 2, 2, 2, 1, 1};
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  EXPECT_THROW(engine.compute_batch(
                   wrong, std::span<const QuartetRef>(b1.quartets), out),
               std::invalid_argument);
}

TEST(BatchedEriTest, EmptyBatchIsNoop) {
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out{{1.0}};
  const BatchStats stats = engine.compute_batch(
      EriClassKey{0, 0, 0, 0, 1, 1}, {}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.gemm_flops, 0.0);
}

TEST(BatchedEriTest, StatsAccumulateWork) {
  const EriClassKey key{2, 2, 2, 2, 1, 1};
  const CalibrationBatch batch = make_calibration_batch(key, 4, 2);
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  const BatchStats stats = engine.compute_batch(
      key, std::span<const QuartetRef>(batch.quartets), out);
  EXPECT_GT(stats.gemm_flops, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(BatchedEriTest, PrecisionErrorOrdering) {
  // FP32 < TF32 <= FP16 quantization error on the same batch.
  const EriClassKey key{2, 1, 2, 1, 2, 2};
  auto err_at = [&](Precision p) {
    KernelConfig config;
    config.gemm.precision = p;
    return compare_batch_to_reference(key, config, 4, 9);
  };
  const double e32 = err_at(Precision::kFP32);
  const double etf = err_at(Precision::kTF32);
  const double e16 = err_at(Precision::kFP16);
  EXPECT_LT(e32, e16);
  EXPECT_LE(e32, etf * 1.01 + 1e-15);
  EXPECT_LE(etf, e16 * 1.5 + 1e-15);
}

}  // namespace
}  // namespace mako
