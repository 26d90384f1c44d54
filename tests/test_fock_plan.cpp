// FockPlan layer tests: plan reuse across iterations is bit-identical to
// fresh builds, the sorted-pair early-exit screening matches the exhaustive
// enumeration quartet for quartet (including adversarial exactly-on-threshold
// densities), the steady-state build loop allocates nothing, and the
// ExecutionContext-anchored plan cache serves repeated builders without
// reconstruction work.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/fock.hpp"
#include "scf/fock_plan.hpp"
#include "util/rng.hpp"

// --- Global allocation instrumentation --------------------------------------
//
// Same idiom as test_class_plan.cpp: the counting operators replace the
// global ones for this test binary only; counting is switched on around the
// steady-state build_jk call.

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

MatrixD random_symmetric_density(std::size_t n, unsigned seed) {
  Rng rng(seed);
  MatrixD d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-0.5, 0.5);
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) d(i, i) += 1.0;
  return d;
}

double shell_block_max(const MatrixD& d, const Shell& a, const Shell& b) {
  double m = 0.0;
  for (int i = 0; i < a.num_sph(); ++i) {
    for (int j = 0; j < b.num_sph(); ++j) {
      m = std::max(m, std::fabs(d(a.sph_offset + i, b.sph_offset + j)));
    }
  }
  return m;
}

struct RouteCounts {
  std::int64_t fp64 = 0, quantized = 0, pruned = 0;
};

/// The pre-plan exhaustive screening loop, replicated verbatim: every
/// symmetry-unique quartet visited, classified from the density-weighted
/// Schwarz bound.  The plan-based early-exit path must reproduce these
/// counts exactly.  Also returns every distinct bound value so tests can sit
/// thresholds exactly on observed bounds (the >= keep edge).
RouteCounts exhaustive_route_counts(const BasisSet& basis, const MatrixD& q,
                                    const MatrixD& density,
                                    const IterationPolicy& policy,
                                    std::vector<double>* bounds_out) {
  const auto& shells = basis.shells();
  const std::size_t ns = shells.size();
  MatrixD dmax(ns, ns, 0.0);
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      dmax(a, b) = shell_block_max(density, shells[a], shells[b]);
    }
  }
  RouteCounts counts;
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      const double qab = q(a, b);
      for (std::size_t c = 0; c <= a; ++c) {
        const std::size_t dtop = (c == a) ? b : c;
        for (std::size_t dd = 0; dd <= dtop; ++dd) {
          const double dw =
              std::max({dmax(a, b), dmax(c, dd), dmax(a, c), dmax(a, dd),
                        dmax(b, c), dmax(b, dd)});
          const double bound = qab * q(c, dd) * std::max(dw, 1e-30);
          if (bounds_out != nullptr) bounds_out->push_back(bound);
          const IntegralClass route =
              policy.allow_quantized
                  ? classify_integral(bound, policy.fp64_threshold,
                                      policy.prune_threshold)
                  : (bound >= policy.prune_threshold
                         ? IntegralClass::kFull
                         : IntegralClass::kPruned);
          switch (route) {
            case IntegralClass::kFull:
              ++counts.fp64;
              break;
            case IntegralClass::kQuantized:
              ++counts.quantized;
              break;
            case IntegralClass::kPruned:
              ++counts.pruned;
              break;
          }
        }
      }
    }
  }
  return counts;
}

IterationPolicy exact_policy() {
  IterationPolicy p;
  p.allow_quantized = false;
  p.fp64_threshold = 0.0;
  p.prune_threshold = 0.0;
  return p;
}

// --- Plan structure ----------------------------------------------------------

TEST(FockPlanTest, PairsSortedDescendingAndComplete) {
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  ThreadPool pool(2);
  const FockPlan plan(bs, pool);

  const std::size_t ns = bs.num_shells();
  ASSERT_EQ(plan.pairs().size(), ns * (ns + 1) / 2);
  for (std::size_t i = 1; i < plan.pairs().size(); ++i) {
    EXPECT_GE(plan.pairs()[i - 1].q, plan.pairs()[i].q);
  }
  for (const FockShellPair& p : plan.pairs()) {
    EXPECT_LE(p.i2, p.i1);
    EXPECT_EQ(p.s1, &bs.shells()[p.i1]);
    EXPECT_EQ(p.s2, &bs.shells()[p.i2]);
    EXPECT_DOUBLE_EQ(p.q, plan.schwarz()(p.i1, p.i2));
    EXPECT_FLOAT_EQ(p.self_weight, p.i1 == p.i2 ? 0.5f : 1.0f);
    // The class-slot table must agree with the engine's classifier.
    for (const FockShellPair& p2 : plan.pairs()) {
      const QuartetRef qr{p.s1, p.s2, p2.s1, p2.s2};
      const EriClassKey key =
          plan.quartet_classes()[plan.class_slot(p.klass, p2.klass)];
      ASSERT_EQ(key, BatchedEriEngine::classify(qr));
    }
  }
}

TEST(FockPlanTest, BoundsAndPairOrderIndependentOfPoolWidth) {
  const Molecule cluster = make_water_cluster(2, 5);
  const BasisSet bs(cluster, "6-31g");
  ThreadPool one(1);
  const FockPlan want(bs, one);
  for (std::size_t width : {2u, 4u}) {
    ThreadPool pool(width);
    const FockPlan got(bs, pool);
    ASSERT_EQ(got.schwarz().rows(), want.schwarz().rows());
    EXPECT_EQ(std::memcmp(got.schwarz().data(), want.schwarz().data(),
                          want.schwarz().size() * sizeof(double)),
              0)
        << width << " threads";
    ASSERT_EQ(got.pairs().size(), want.pairs().size());
    for (std::size_t i = 0; i < want.pairs().size(); ++i) {
      EXPECT_EQ(got.pairs()[i].i1, want.pairs()[i].i1) << i;
      EXPECT_EQ(got.pairs()[i].i2, want.pairs()[i].i2) << i;
    }
  }
}

// --- Plan reuse: bit-identical iterations ------------------------------------

// Over each route a quartet can take: pure FP64, and the quantized route at
// both reduced precisions (the precision ladder's FP16 and TF32 rungs).
class PlanReuseTest : public ::testing::TestWithParam<Precision> {};

TEST_P(PlanReuseTest, ReusedBuilderMatchesFreshBuildersBitForBit) {
  const ExecutionContext ctx;

  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  const FockOptions options;

  IterationPolicy policy;
  policy.allow_quantized = GetParam() != Precision::kFP64;
  // High enough that the quantized route carries real quartets (asserted
  // below); at 1e-4 or lower every quartet of this system stays on FP64.
  policy.fp64_threshold = 1e-2;
  policy.prune_threshold = 1e-13;
  if (policy.allow_quantized) policy.quant_precision = GetParam();

  // One long-lived builder plays >= 3 SCF iterations (different densities);
  // a brand-new builder per density is the fresh-build baseline.
  FockBuilder reused(bs, options, &ctx);
  for (unsigned seed : {3u, 5u, 9u}) {
    const MatrixD d = random_symmetric_density(bs.nbf(), seed);
    MatrixD j1, k1, j2, k2;
    const FockStats s1 = reused.build_jk(d, policy, j1, k1);
    const FockStats s2 = FockBuilder(bs, options, &ctx).build_jk(d, policy,
                                                                 j2, k2);
    EXPECT_EQ(max_abs_diff(j1, j2), 0.0);
    EXPECT_EQ(max_abs_diff(k1, k2), 0.0);
    EXPECT_EQ(s1.quartets_fp64, s2.quartets_fp64);
    EXPECT_EQ(s1.quartets_quantized, s2.quartets_quantized);
    EXPECT_EQ(s1.quartets_pruned, s2.quartets_pruned);
    EXPECT_EQ(s1.screen_visited, s2.screen_visited);
    EXPECT_EQ(s1.screen_pruned_early, s2.screen_pruned_early);

    // Rebuilding with the same density must also be bit-stable.
    MatrixD j3, k3;
    const FockStats s3 = reused.build_jk(d, policy, j3, k3);
    EXPECT_EQ(max_abs_diff(j1, j3), 0.0);
    EXPECT_EQ(max_abs_diff(k1, k3), 0.0);
    EXPECT_EQ(s1.quartets_fp64, s3.quartets_fp64);
    EXPECT_EQ(s1.quartets_quantized > 0, policy.allow_quantized);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, PlanReuseTest,
    ::testing::Values(Precision::kFP64, Precision::kTF32, Precision::kFP16),
    [](const auto& info) {
      switch (info.param) {
        case Precision::kTF32: return std::string("Tf32");
        case Precision::kFP16: return std::string("Fp16");
        default: return std::string("Fp64");
      }
    });

// --- Early-exit screening vs exhaustive enumeration --------------------------

TEST(FockPlanTest, EarlyExitNeverDropsAKeptQuartet) {
  const Molecule cluster = make_water_cluster(2, 5);
  const BasisSet bs(cluster, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 17);

  FockBuilder builder(bs, {});
  const MatrixD& q = builder.schwarz();
  const std::int64_t total = builder.plan().num_unique_quartets();

  // Collect every bound once so thresholds can be placed adversarially:
  // exactly ON an observed bound (the >= edge keeps it), barely above, and
  // barely below.
  std::vector<double> bounds;
  exhaustive_route_counts(bs, q, d, exact_policy(), &bounds);
  std::sort(bounds.begin(), bounds.end());
  std::vector<double> thresholds{0.0, 1e-12, 1e-8,
                                 bounds[bounds.size() / 2],
                                 bounds[bounds.size() / 2] * (1.0 + 1e-12),
                                 bounds[bounds.size() / 2] * (1.0 - 1e-12),
                                 bounds[bounds.size() / 4],
                                 bounds[3 * bounds.size() / 4],
                                 bounds.front(), bounds.back()};

  for (double prune : thresholds) {
    // Pure FP64 policy.
    IterationPolicy p = exact_policy();
    p.prune_threshold = prune;
    const RouteCounts want = exhaustive_route_counts(bs, q, d, p, nullptr);
    MatrixD j, k;
    const FockStats got = builder.build_jk(d, p, j, k);
    EXPECT_EQ(got.quartets_fp64, want.fp64) << "prune=" << prune;
    EXPECT_EQ(got.quartets_quantized, want.quantized) << "prune=" << prune;
    EXPECT_EQ(got.quartets_pruned, want.pruned) << "prune=" << prune;
    // Early-exit bookkeeping: never-visited + visited covers everything,
    // and bulk-pruned quartets are a subset of the pruned count.
    EXPECT_EQ(got.screen_visited + got.screen_pruned_early, total);
    EXPECT_LE(got.screen_pruned_early, got.quartets_pruned);

    // Quantized policy, including the inverted-threshold edge where
    // fp64_threshold < prune_threshold (the keep floor is their min).
    for (double fp64_thr : {prune * 2.0, prune, prune * 0.5}) {
      IterationPolicy pq = p;
      pq.allow_quantized = true;
      pq.fp64_threshold = fp64_thr;
      pq.quant_precision = Precision::kFP16;
      const RouteCounts wantq =
          exhaustive_route_counts(bs, q, d, pq, nullptr);
      MatrixD jq, kq;
      const FockStats gotq = builder.build_jk(d, pq, jq, kq);
      EXPECT_EQ(gotq.quartets_fp64, wantq.fp64)
          << "prune=" << prune << " fp64=" << fp64_thr;
      EXPECT_EQ(gotq.quartets_quantized, wantq.quantized)
          << "prune=" << prune << " fp64=" << fp64_thr;
      EXPECT_EQ(gotq.quartets_pruned, wantq.pruned)
          << "prune=" << prune << " fp64=" << fp64_thr;
      EXPECT_EQ(gotq.screen_visited + gotq.screen_pruned_early, total);
    }
  }
}

TEST(FockPlanTest, UnscreenedBuildVisitsEveryQuartet) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 4);
  FockBuilder builder(bs, {});
  MatrixD j, k;
  const FockStats stats = builder.build_jk(d, exact_policy(), j, k);
  EXPECT_EQ(stats.screen_pruned_early, 0);
  EXPECT_EQ(stats.screen_visited, builder.plan().num_unique_quartets());
  EXPECT_EQ(stats.quartets_fp64 + stats.quartets_quantized +
                stats.quartets_pruned,
            builder.plan().num_unique_quartets());
}

// --- Timers are non-negative under parallel execution ------------------------

TEST(FockPlanTest, StageTimersNonNegative) {
  const Molecule cluster = make_water_cluster(2, 5);
  const BasisSet bs(cluster, "6-31g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 8);
  FockBuilder builder(bs);
  MatrixD j, k;
  IterationPolicy p = exact_policy();
  p.prune_threshold = 1e-12;
  const FockStats stats = builder.build_jk(d, p, j, k);
  EXPECT_GE(stats.eri_seconds, 0.0);
  EXPECT_GE(stats.digest_seconds, 0.0);
  EXPECT_GE(stats.route_seconds, 0.0);
  EXPECT_GE(stats.jk_wall_seconds, 0.0);
  EXPECT_GT(stats.eri_seconds + stats.digest_seconds, 0.0);
}

// --- Steady-state allocation freedom -----------------------------------------

TEST(FockPlanTest, SteadyStateBuildAllocatesNothing) {
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 6);

  // A 1-thread pool runs every shard inline, in slice order: the serial
  // path owns the no-alloc contract (queueing work on a pool allocates).
  // Pin ranks=1 explicitly: the no-alloc contract covers the single-rank
  // reduction path (a multi-rank context would copy rank partials into the
  // simulated communicator every build, e.g. under MAKO_RANKS in CI).
  ThreadPool pool(1);
  ExecutionContextOptions ctx_opt;
  ctx_opt.ranks = 1;
  ctx_opt.pool = &pool;
  const ExecutionContext ctx(ctx_opt);
  FockBuilder builder(bs, {}, &ctx);

  IterationPolicy p = exact_policy();
  p.prune_threshold = 1e-12;  // exercise the early-exit path too

  // Two warm-up builds grow every scratch buffer to its high-water mark.
  MatrixD j, k;
  builder.build_jk(d, p, j, k);
  builder.build_jk(d, p, j, k);

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  builder.build_jk(d, p, j, k);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0);
}

// --- Plan cache: second builder performs no construction work -----------------

TEST(FockPlanTest, SecondBuilderOverSameBasisHitsThePlanCache) {
  const ExecutionContext ctx;
  FockPlanCache& cache = ctx.components().get<FockPlanCache>();
  EXPECT_EQ(cache.builds(), 0);
  EXPECT_EQ(cache.hits(), 0);

  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  const MatrixD d = random_symmetric_density(bs.nbf(), 2);

  MatrixD j, k;
  FockBuilder first(bs, {}, &ctx);
  first.build_jk(d, exact_policy(), j, k);
  EXPECT_EQ(cache.builds(), 1);
  EXPECT_EQ(cache.hits(), 0);

  // The ctest guard of the PR's acceptance criteria: a second Fock build
  // over the same live basis performs zero plan-construction work
  // (counter-based, not timing-based).
  FockBuilder second(bs, {}, &ctx);
  second.build_jk(d, exact_policy(), j, k);
  EXPECT_EQ(cache.builds(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(&first.plan(), &second.plan());

  // A different basis gets its own plan.
  const BasisSet small(w, "sto-3g");
  const MatrixD d_small = random_symmetric_density(small.nbf(), 2);
  FockBuilder third(small, {}, &ctx);
  third.build_jk(d_small, exact_policy(), j, k);
  EXPECT_EQ(cache.builds(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

// --- Plan cache: a plan lives exactly as long as its basis --------------------

TEST(FockPlanTest, LongLivedContextHoldsNoPlanOfADeadBasis) {
  const ExecutionContext ctx;
  FockPlanCache& cache = ctx.components().get<FockPlanCache>();
  const Molecule w = make_water();

  // Transient bases, typically reusing one address with identical content:
  // each is a fresh plan (never a stale hit), and each plan dies with its
  // basis although the context lives on.
  constexpr int kBases = 6;
  std::vector<std::weak_ptr<const FockPlan>> plans;
  for (int i = 0; i < kBases; ++i) {
    const BasisSet bs(w, "sto-3g");
    const auto plan = cache.get(bs, ctx.pool());
    EXPECT_EQ(cache.get(bs, ctx.pool()), plan);  // live basis: a hit
    EXPECT_EQ(cache.size(), 1u);
    plans.push_back(plan);
  }
  for (const auto& plan : plans) EXPECT_TRUE(plan.expired());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.builds(), kBases);
  EXPECT_EQ(cache.hits(), kBases);

  // A copy is a different basis (its own shells): its own plan, pointing
  // into the copy.
  const BasisSet original(w, "sto-3g");
  const BasisSet copy = original;
  const auto p_original = cache.get(original, ctx.pool());
  const auto p_copy = cache.get(copy, ctx.pool());
  EXPECT_NE(p_original, p_copy);
  for (const FockShellPair& pr : p_copy->pairs()) {
    EXPECT_GE(pr.s1, copy.shells().data());
    EXPECT_LT(pr.s1, copy.shells().data() + copy.num_shells());
  }
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FockPlanTest, PlanOfALiveBasisDiesWithItsContext) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  std::weak_ptr<const FockPlan> plan;
  {
    const ExecutionContext ctx;
    plan = ctx.components().get<FockPlanCache>().get(bs, ctx.pool());
    EXPECT_FALSE(plan.expired());
  }
  EXPECT_TRUE(plan.expired());
}

}  // namespace
}  // namespace mako
