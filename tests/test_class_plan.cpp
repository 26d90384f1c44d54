// Execution-plan layer tests: plan-cache semantics, equivalence of the
// packed/planned engine against the reference engine across precisions,
// bit-identity of the kernel under batch splits, and the steady-state
// allocation-freedom contract of compute_batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "chem/builders.hpp"
#include "compilermako/registry.hpp"
#include "eri_reference.hpp"
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
  EriPlanCache cache;
  const EriClassPlan& p1 = cache.get(key);
  const EriClassPlan& p2 = cache.get(key);
  EXPECT_EQ(&p1, &p2);
  EXPECT_EQ(p1.key(), key);
}

TEST(ClassPlanTest, DimensionsMatchClassAlgebra) {
  const EriClassKey key{2, 1, 1, 1, 1, 1};
  const EriClassPlan plan(key);
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
  const EriClassPlan plan(EriClassKey{1, 1, 1, 1, 1, 1});
  ASSERT_FALSE(plan.sign_cd.empty());
  EXPECT_DOUBLE_EQ(plan.sign_cd[0], 1.0);
  for (double s : plan.sign_cd) EXPECT_DOUBLE_EQ(std::fabs(s), 1.0);
}

TEST(ClassPlanTest, PlansOfOneOrderPairShareTheirHermiteTables) {
  // sign_cd and combined depend on the bra and ket Hermite orders alone:
  // plans of different classes with the same orders, in different caches,
  // borrow the same tables, so a run's plan cache holds none of its own.
  EriPlanCache first, second;
  const EriClassPlan& a = first.get(EriClassKey{2, 1, 1, 1, 3, 2});
  const EriClassPlan& b = second.get(EriClassKey{3, 0, 2, 0, 1, 1});
  EXPECT_EQ(&a.combined, &b.combined);
  EXPECT_EQ(&a.sign_cd, &b.sign_cd);
  const EriClassPlan& c = second.get(EriClassKey{2, 1, 1, 0, 3, 2});
  EXPECT_NE(&a.combined, &c.combined);  // ket order 1, not 2
}

TEST(ClassPlanTest, PrewarmCoversBasisClasses) {
  const Molecule water = make_water();
  const BasisSet basis(water, "def2-tzvp");
  EriPlanCache cache;
  const std::size_t planned = prewarm_class_plans(basis, cache);
  EXPECT_GT(planned, 0u);
  EXPECT_EQ(cache.size(), planned);
  // Every enumerated class must now hit the cache (same reference back).
  for (const EriClassKey& key : enumerate_eri_classes(basis)) {
    EXPECT_EQ(&cache.get(key), &cache.get(key));
  }
  EXPECT_EQ(cache.size(), planned);
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
  EriPlanCache plans;
  BatchedEriEngine engine({}, nullptr, &plans);

  std::vector<std::vector<double>> out_implicit;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets),
                       out_implicit);

  EriScratch scratch;
  std::vector<std::vector<double>> out_explicit;
  engine.compute_batch(plans.get(key),
                       std::span<const QuartetRef>(batch.quartets),
                       out_explicit, scratch);

  ASSERT_EQ(out_implicit.size(), out_explicit.size());
  for (std::size_t q = 0; q < out_implicit.size(); ++q) {
    ASSERT_EQ(out_implicit[q], out_explicit[q]) << "q=" << q;
  }
}

// --- FP64 association: bra first vs ket first --------------------------------

/// Largest per-quartet max|a - b| / max|a| of two batch results.
double association_gap(const std::vector<std::vector<double>>& a,
                       const std::vector<std::vector<double>>& b) {
  double worst = 0.0;
  for (std::size_t q = 0; q < a.size(); ++q) {
    double scale = 0.0, diff = 0.0;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      scale = std::max(scale, std::fabs(a[q][i]));
      diff = std::max(diff, std::fabs(a[q][i] - b[q][i]));
    }
    if (scale > 0.0) worst = std::max(worst, diff / scale);
  }
  return worst;
}

/// Runs `key`'s FP64 batch under its plan and under the plan with the
/// other association; returns the association_gap of the two.
double both_orders_gap(const EriClassKey& key) {
  const CalibrationBatch batch = make_calibration_batch(key, 3, 19);
  EriPlanCache plans;
  const BatchedEriEngine engine({}, nullptr, &plans);
  EriClassPlan flipped = plans.get(key);
  flipped.ket_first = !flipped.ket_first;
  EriScratch scratch;
  std::vector<std::vector<double>> planned, other;
  engine.compute_batch(plans.get(key),
                       std::span<const QuartetRef>(batch.quartets), planned,
                       scratch);
  engine.compute_batch(flipped, std::span<const QuartetRef>(batch.quartets),
                       other, scratch);
  EXPECT_EQ(planned.size(), other.size());
  return association_gap(planned, other);
}

TEST(AssociationTest, BothOrdersAgreeOnWater3Tzvp) {
  const BasisSet basis(make_water_cluster(3), "def2-tzvp");
  for (const EriClassKey& key : enumerate_eri_classes(basis)) {
    EXPECT_LE(both_orders_gap(key), 1e-13) << key.name();
  }
}

TEST(AssociationTest, BothOrdersAgreeUpToF) {
  int ket_first = 0, classes = 0;
  for (int la = 0; la <= 3; ++la) {
    for (int lb = 0; lb <= 3; ++lb) {
      for (int lc = 0; lc <= 3; ++lc) {
        for (int ld = 0; ld <= 3; ++ld) {
          for (const auto& [kab, kcd] : {std::pair{1, 1}, std::pair{3, 2}}) {
            const EriClassKey key{la, lb, lc, ld, kab, kcd};
            EXPECT_LE(both_orders_gap(key), 1e-13) << key.name();
            ket_first += EriClassPlan(key).ket_first ? 1 : 0;
            ++classes;
          }
        }
      }
    }
  }
  // Both associations are in use.
  EXPECT_GT(ket_first, 0);
  EXPECT_LT(ket_first, classes);
}

TEST(AssociationTest, OrderIsAFunctionOfTheKey) {
  EriPlanCache first, second;
  for (const EriClassKey& key :
       enumerate_eri_classes(BasisSet(make_water(), "def2-tzvp"))) {
    EXPECT_EQ(first.get(key).ket_first, second.get(key).ket_first)
        << key.name();
    EXPECT_EQ(first.get(key).ket_first, EriClassPlan(key).ket_first)
        << key.name();
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
  EriPlanCache cache;
  (void)cache.get(key);  // construct + cache
  g_alloc_count.store(0);
  g_counting.store(true);
  const EriClassPlan& plan = cache.get(key);
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
  EXPECT_EQ(plan.key(), key);
}

}  // namespace
}  // namespace mako
