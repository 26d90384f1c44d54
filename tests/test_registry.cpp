// ERI class registry tests: combinatorial growth with angular momentum, and
// the synthetic calibration batches the kernel tests and benches share.
#include <gtest/gtest.h>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "compilermako/registry.hpp"

namespace mako {
namespace {

TEST(RegistryTest, Sto3gWaterPairClasses) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const auto pairs = enumerate_pair_classes(bs);
  // Shells: O{s,s,p}, H{s}, H{s} all with K=3 primitives -> pair K=9.
  // Distinct ordered (l1,l2): (0,0), (1,0), (0,1), (1,1) — bra order is part
  // of the kernel identity (an (sp| kernel differs from (ps|).
  EXPECT_EQ(pairs.size(), 4u);
  for (const PairClass& p : pairs) EXPECT_EQ(p.k, 9);
}

TEST(RegistryTest, EriClassesAreSquareOfPairClasses) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const auto pairs = enumerate_pair_classes(bs);
  const auto classes = enumerate_eri_classes(bs);
  EXPECT_EQ(classes.size(), pairs.size() * pairs.size());
}

TEST(RegistryTest, CombinatorialGrowthWithAngularMomentum) {
  const Molecule w = make_water();
  const std::size_t n_sto =
      enumerate_eri_classes(BasisSet(w, "sto-3g")).size();
  const std::size_t n_tzvp =
      enumerate_eri_classes(BasisSet(w, "def2-tzvp")).size();
  const std::size_t n_qzvp =
      enumerate_eri_classes(BasisSet(w, "def2-qzvp")).size();
  EXPECT_LT(n_sto, n_tzvp);
  EXPECT_LT(n_tzvp, n_qzvp);
  // The Section-2.4.3 explosion: hundreds of distinct classes at QZ level.
  EXPECT_GT(n_qzvp, 200u);
}

TEST(RegistryTest, ClassesSortedAndUnique) {
  const Molecule w = make_water();
  const auto classes = enumerate_eri_classes(BasisSet(w, "def2-tzvp"));
  for (std::size_t i = 1; i < classes.size(); ++i) {
    EXPECT_TRUE(classes[i - 1] < classes[i]);
  }
}

TEST(RegistryTest, KeyNamesReadable) {
  const EriClassKey key{4, 4, 4, 4, 1, 1};
  EXPECT_EQ(key.name(), "(gg|gg) K{1,1}");
  const EriClassKey mixed{2, 1, 1, 0, 5, 3};
  EXPECT_EQ(mixed.name(), "(dp|ps) K{5,3}");
}

TEST(RegistryTest, KeyDimensionHelpers) {
  const EriClassKey key{4, 4, 4, 4, 1, 1};
  EXPECT_EQ(key.lab(), 8);
  EXPECT_EQ(key.ltot(), 16);
  EXPECT_EQ(key.nherm_bra(), 165);
  EXPECT_EQ(key.ncart_bra(), 225);
  EXPECT_EQ(key.nsph_bra(), 81);
  EXPECT_GT(key.gemm1_flops(), 0.0);
  EXPECT_DOUBLE_EQ(key.gemm_flops_per_quartet(),
                   key.gemm1_flops() + key.gemm2_flops());
}

TEST(CalibrationBatchTest, RespectsClassKey) {
  const EriClassKey key{2, 1, 1, 0, 6, 3};
  const CalibrationBatch batch = make_calibration_batch(key, 5, 9);
  EXPECT_EQ(batch.quartets.size(), 5u);
  for (const QuartetRef& q : batch.quartets) {
    EXPECT_EQ(BatchedEriEngine::classify(q), key);
  }
}

TEST(CalibrationBatchTest, Deterministic) {
  const EriClassKey key{1, 1, 1, 1, 2, 2};
  const CalibrationBatch a = make_calibration_batch(key, 2, 42);
  const CalibrationBatch b = make_calibration_batch(key, 2, 42);
  EXPECT_EQ(a.shells[0].exponents, b.shells[0].exponents);
  EXPECT_EQ(a.shells[3].coefficients, b.shells[3].coefficients);
}

}  // namespace
}  // namespace mako
