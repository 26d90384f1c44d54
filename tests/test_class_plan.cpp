// Execution-plan layer tests: plan-cache semantics, equivalence of the
// packed/planned engine against the reference engine across precisions,
// bit-identity of the kernel under batch splits, and the steady-state
// allocation-freedom contract of compute_batch.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "chem/builders.hpp"
#include "compilermako/registry.hpp"
#include "integrals/eri_reference.hpp"
#include "kernelmako/batched_eri.hpp"
#include "kernelmako/class_plan.hpp"

// --- Global allocation instrumentation --------------------------------------
//
// The counting operators replace the global ones for this test binary only.
// Counting is switched on around the steady-state compute_batch call; every
// other allocation in the process passes through uncounted.

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mako {
namespace {

std::vector<std::vector<double>> run_batch(const EriClassKey& key,
                                           const KernelConfig& config,
                                           const CalibrationBatch& batch) {
  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets), out);
  return out;
}

// --- Plan cache --------------------------------------------------------------

TEST(ClassPlanTest, CacheReturnsStableReference) {
  const EriClassKey key{2, 1, 1, 0, 3, 2};
  const EriClassPlan& p1 = EriClassPlan::get(key);
  const EriClassPlan& p2 = EriClassPlan::get(key);
  EXPECT_EQ(&p1, &p2);
  EXPECT_EQ(p1.key(), key);
}

TEST(ClassPlanTest, DimensionsMatchClassAlgebra) {
  const EriClassKey key{2, 1, 1, 1, 1, 1};
  const EriClassPlan& plan = EriClassPlan::get(key);
  EXPECT_EQ(plan.ncb, 6 * 3);  // cart(d) x cart(p)
  EXPECT_EQ(plan.nck, 3 * 3);
  EXPECT_EQ(plan.nsb, 5 * 3);  // sph(d) x sph(p)
  EXPECT_EQ(plan.nsk, 3 * 3);
  EXPECT_EQ(plan.ltot, 5);
  ASSERT_NE(plan.sph_bra, nullptr);
  ASSERT_NE(plan.sph_ket, nullptr);
  EXPECT_EQ(plan.sph_bra->rows(), static_cast<std::size_t>(plan.nsb));
  EXPECT_EQ(plan.sph_bra->cols(), static_cast<std::size_t>(plan.ncb));
  EXPECT_EQ(plan.sph_ket->rows(), static_cast<std::size_t>(plan.nsk));
  EXPECT_EQ(plan.sph_ket->cols(), static_cast<std::size_t>(plan.nck));
  EXPECT_EQ(plan.sign_cd.size(), static_cast<std::size_t>(plan.nhk));
  EXPECT_EQ(plan.combined.size(),
            static_cast<std::size_t>(plan.nhb) * plan.nhk);
}

TEST(ClassPlanTest, SignTableAlternatesWithHermiteOrder) {
  // (-1)^{|q~|}: the |q~| = 0 component is +1 and every entry is +/-1.
  const EriClassPlan& plan = EriClassPlan::get(EriClassKey{1, 1, 1, 1, 1, 1});
  ASSERT_FALSE(plan.sign_cd.empty());
  EXPECT_DOUBLE_EQ(plan.sign_cd[0], 1.0);
  for (double s : plan.sign_cd) EXPECT_DOUBLE_EQ(std::fabs(s), 1.0);
}

TEST(ClassPlanTest, PrewarmCoversBasisClasses) {
  const Molecule water = make_water();
  const BasisSet basis(water, "def2-tzvp");
  const std::size_t planned = prewarm_class_plans(basis);
  EXPECT_GT(planned, 0u);
  EXPECT_GE(EriClassPlan::cache_size(), planned);
  // Every enumerated class must now hit the cache (same reference back).
  for (const EriClassKey& key : enumerate_eri_classes(basis)) {
    EXPECT_EQ(&EriClassPlan::get(key), &EriClassPlan::get(key));
  }
}

// --- Equivalence: planned/packed engine vs reference -------------------------

struct EquivParam {
  EriClassKey key;
  Precision precision;
};

class PlanEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(PlanEquivalenceTest, PackedMatchesReference) {
  const EquivParam p = GetParam();
  const CalibrationBatch batch = make_calibration_batch(p.key, 3, 17);
  KernelConfig config;
  config.gemm.precision = p.precision;
  const auto out = run_batch(p.key, config, batch);

  ReferenceEriEngine ref;
  std::vector<double> expected;
  const double tol = (p.precision == Precision::kFP64) ? 1e-11 : 2e-2;
  for (std::size_t q = 0; q < batch.quartets.size(); ++q) {
    const QuartetRef& r = batch.quartets[q];
    ref.compute(*r.a, *r.b, *r.c, *r.d, expected);
    ASSERT_EQ(out[q].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(out[q][i], expected[i], tol) << p.key.name() << " i=" << i;
    }
  }
}

void expect_bitwise_equal(const std::vector<std::vector<double>>& a,
                          const std::vector<std::vector<double>>& b,
                          const EriClassKey& key) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size());
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      // Bit patterns, not values: NaN == NaN and -0 != +0 here.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[q][i]),
                std::bit_cast<std::uint64_t>(b[q][i]))
          << key.name() << " q=" << q << " i=" << i;
    }
  }
}

// Every scale (E' per pair, P and T per quartet) is local to a quartet, so a
// quartet's integrals do not depend on which batch it was computed in.
TEST_P(PlanEquivalenceTest, SingleQuartetBatchesMatchWholeBatch) {
  const EquivParam p = GetParam();
  const CalibrationBatch batch = make_calibration_batch(p.key, 3, 17);
  KernelConfig config;
  config.gemm.precision = p.precision;
  const auto whole = run_batch(p.key, config, batch);

  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> singles;
  std::vector<std::vector<double>> one;
  for (const QuartetRef& q : batch.quartets) {
    engine.compute_batch(p.key, std::span<const QuartetRef>(&q, 1), one);
    ASSERT_EQ(one.size(), 1u);
    singles.push_back(one[0]);
  }
  expect_bitwise_equal(whole, singles, p.key);
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndPrecisions, PlanEquivalenceTest,
    ::testing::Values(EquivParam{{0, 0, 0, 0, 1, 1}, Precision::kFP64},
                      EquivParam{{1, 1, 1, 1, 1, 1}, Precision::kFP64},
                      EquivParam{{2, 2, 2, 2, 1, 1}, Precision::kFP64},
                      EquivParam{{2, 1, 1, 0, 2, 2}, Precision::kFP64},
                      EquivParam{{3, 3, 3, 3, 1, 1}, Precision::kFP64},
                      EquivParam{{2, 2, 2, 2, 1, 1}, Precision::kTF32},
                      EquivParam{{2, 1, 1, 0, 2, 2}, Precision::kTF32},
                      EquivParam{{2, 2, 2, 2, 1, 1}, Precision::kFP32},
                      EquivParam{{2, 1, 1, 0, 2, 2}, Precision::kFP32},
                      EquivParam{{2, 2, 2, 2, 1, 1}, Precision::kFP16},
                      EquivParam{{2, 1, 1, 0, 2, 2}, Precision::kFP16}));

TEST(ClassPlanTest, PlanExplicitOverloadMatchesImplicit) {
  // The 4-arg overload with caller-owned scratch is the same execution path
  // as the key-based one — results must be bit-identical.
  const EriClassKey key{2, 1, 2, 1, 2, 2};
  const CalibrationBatch batch = make_calibration_batch(key, 4, 23);
  BatchedEriEngine engine;

  std::vector<std::vector<double>> out_implicit;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets),
                       out_implicit);

  EriScratch scratch;
  std::vector<std::vector<double>> out_explicit;
  engine.compute_batch(EriClassPlan::get(key),
                       std::span<const QuartetRef>(batch.quartets),
                       out_explicit, scratch);

  ASSERT_EQ(out_implicit.size(), out_explicit.size());
  for (std::size_t q = 0; q < out_implicit.size(); ++q) {
    ASSERT_EQ(out_implicit[q], out_explicit[q]) << "q=" << q;
  }
}

// --- Steady-state allocation freedom -----------------------------------------

class AllocationTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(AllocationTest, SteadyStateBatchIsAllocationFree) {
  const EquivParam p = GetParam();
  const CalibrationBatch batch = make_calibration_batch(p.key, 4, 7);
  KernelConfig config;
  config.gemm.precision = p.precision;
  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;

  // Warm-up: grows the thread-local scratch arena, the plan cache entry, the
  // GEMM pack arenas, and the output buffers to their high-water marks.
  for (int warm = 0; warm < 2; ++warm) {
    engine.compute_batch(p.key, std::span<const QuartetRef>(batch.quartets),
                         out);
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  engine.compute_batch(p.key, std::span<const QuartetRef>(batch.quartets),
                       out);
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0) << p.key.name();
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AllocationTest,
    ::testing::Values(EquivParam{{2, 2, 2, 2, 1, 1}, Precision::kFP64},
                      EquivParam{{2, 1, 2, 1, 2, 2}, Precision::kFP64},
                      EquivParam{{2, 2, 2, 2, 1, 1}, Precision::kFP16},
                      EquivParam{{2, 1, 2, 1, 2, 2}, Precision::kTF32}));

TEST(AllocationTest, PlanLookupIsAllocationFreeAfterFirstUse) {
  const EriClassKey key{3, 2, 1, 0, 1, 2};
  (void)EriClassPlan::get(key);  // construct + cache
  g_alloc_count.store(0);
  g_counting.store(true);
  const EriClassPlan& plan = EriClassPlan::get(key);
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
  EXPECT_EQ(plan.key(), key);
}

}  // namespace
}  // namespace mako
