// Pair-centric KernelMako contracts: the stacked per-pair operand E'_AB,
// parity of plan-owned vs engine-built operands, independence of J/K from
// batch composition, and the two-GEMMs-per-quartet counter guard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "basis/spherical.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "kernelmako/batched_eri.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/fock.hpp"
#include "scf/fock_plan.hpp"
#include "util/rng.hpp"

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

bool same_bits(const MatrixD& a, const MatrixD& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

IterationPolicy fp64_policy() {
  IterationPolicy p;
  p.allow_quantized = false;
  p.fp64_threshold = 0.0;
  p.prune_threshold = 1e-12;
  return p;
}

IterationPolicy fp16_policy() {
  IterationPolicy p;
  p.allow_quantized = true;
  p.fp64_threshold = 1e-4;
  p.prune_threshold = 1e-12;
  p.quant_precision = Precision::kFP16;
  return p;
}

std::int64_t counter(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::global().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

// --- The stacked operand ------------------------------------------------------

TEST(PairOperandTest, StacksSphericalEMatricesOfEveryPrimitivePair) {
  Shell a;
  a.l = 2;
  a.center = {0.1, -0.2, 0.3};
  a.exponents = {3.0, 0.8};
  a.coefficients = {0.4, 0.7};
  Shell b;
  b.l = 1;
  b.center = {-0.5, 0.4, 1.1};
  b.exponents = {1.5, 0.3, 0.1};
  b.coefficients = {0.2, 0.5, 0.6};
  normalize_shell(a);
  normalize_shell(b);

  const MatrixD& sph = cart_to_sph_pair(a.l, b.l);
  PairOperand op;
  build_pair_operand(a, b, sph, op);

  const std::size_t nh = nherm(a.l + b.l);
  const std::size_t ns = sph.rows();
  ASSERT_EQ(op.prims.size(), 6u);
  ASSERT_EQ(op.e.size(), 6 * nh * ns);
  double emax = 0.0;
  MatrixD e;
  for (std::size_t jp = 0; jp < op.prims.size(); ++jp) {
    const PrimPair& pp = op.prims[jp];
    build_e_matrix(a.l, b.l, a.center, b.center, pp.alpha, pp.beta, pp.coef,
                   e);
    const MatrixD folded = matmul(e, Trans::kNo, sph, Trans::kYes);
    for (std::size_t h = 0; h < nh; ++h) {
      for (std::size_t s = 0; s < ns; ++s) {
        const double v = op.e[(jp * nh + h) * ns + s];
        EXPECT_NEAR(v, folded(h, s), 1e-14) << "jp=" << jp;
        emax = std::max(emax, std::fabs(v));
      }
    }
  }
  EXPECT_DOUBLE_EQ(op.scale, 1.0 / emax);
}

// --- Plan-owned vs engine-built operands ---------------------------------------

TEST(PairOperandTest, PlanOperandsMatchOnTheFlyOperandsBitForBit) {
  const Molecule trimer = make_water_cluster(3, 1);
  const BasisSet basis(trimer, "def2-tzvp");
  ThreadPool pool(2);
  const FockPlan plan(basis, pool);
  plan.prepare_quantized(Precision::kFP16);

  // Up to three quartets of every quartet class of the plan, in both role
  // orders.
  const auto& pairs = plan.pairs();
  std::vector<std::vector<QuartetRef>> by_class(
      plan.quartet_classes().size());
  for (std::size_t bi = 0; bi < pairs.size(); ++bi) {
    for (std::size_t ki = 0; ki < pairs.size(); ++ki) {
      auto& refs = by_class[plan.class_slot(pairs[bi].klass, pairs[ki].klass)];
      if (refs.size() == 3) continue;
      refs.push_back(QuartetRef{pairs[bi].s1, pairs[bi].s2, pairs[ki].s1,
                                pairs[ki].s2, &plan.operand(bi),
                                &plan.operand(ki)});
    }
  }

  std::set<int> degrees;
  for (Precision p : {Precision::kFP64, Precision::kFP16}) {
    KernelConfig config;
    config.gemm.precision = p;
    const BatchedEriEngine engine(config);
    for (std::size_t slot = 0; slot < by_class.size(); ++slot) {
      const std::vector<QuartetRef>& refs = by_class[slot];
      ASSERT_FALSE(refs.empty()) << "class slot " << slot;
      const EriClassKey& key = plan.quartet_classes()[slot];
      std::vector<QuartetRef> bare = refs;
      for (QuartetRef& r : bare) r.bra = r.ket = nullptr;
      std::vector<std::vector<double>> from_plan, on_the_fly;
      engine.compute_batch(key, refs, from_plan);
      engine.compute_batch(key, bare, on_the_fly);
      ASSERT_EQ(from_plan.size(), on_the_fly.size());
      for (std::size_t q = 0; q < refs.size(); ++q) {
        ASSERT_EQ(from_plan[q].size(), on_the_fly[q].size());
        EXPECT_EQ(std::memcmp(from_plan[q].data(), on_the_fly[q].data(),
                              from_plan[q].size() * sizeof(double)),
                  0)
            << key.name() << " " << to_string(p) << " q=" << q;
      }
      degrees.insert(key.kab);
    }
  }
  // The contracted shells: O s (K=6), O p (K=4) and H s (K=3).
  EXPECT_TRUE(degrees.count(36));
  EXPECT_TRUE(degrees.count(16));
  EXPECT_TRUE(degrees.count(9));
}

TEST(PairOperandTest, ConcurrentQuantizedBuildsShareOnePlan) {
  // Two builders over one context share the cached FockPlan; both request
  // its FP16 operand copies at once, which must build them exactly once.
  ExecutionContextOptions ctx_opt;
  ctx_opt.make_active = false;
  const ExecutionContext ctx(ctx_opt);
  const Molecule water = make_water();
  const BasisSet basis(water, "def2-svp");
  const MatrixD d = random_symmetric_density(basis.nbf(), 12);
  FockOptions options;
  options.parallel = false;
  const FockBuilder first(basis, options, &ctx);
  const FockBuilder second(basis, options, &ctx);
  ASSERT_EQ(&first.plan(), &second.plan());

  MatrixD j1, k1, j2, k2;
  std::thread t([&] { first.build_jk(d, fp16_policy(), j1, k1); });
  second.build_jk(d, fp16_policy(), j2, k2);
  t.join();
  EXPECT_TRUE(same_bits(j1, j2));
  EXPECT_TRUE(same_bits(k1, k2));
}

// --- Batch-composition invariance ---------------------------------------------

class BatchInvarianceTest : public ::testing::TestWithParam<bool> {};

TEST_P(BatchInvarianceTest, JkBitIdenticalForEveryBatchSize) {
  const bool quantized = GetParam();
  ExecutionContextOptions ctx_opt;
  ctx_opt.make_active = false;
  const ExecutionContext ctx(ctx_opt);
  const Molecule dimer = make_water_cluster(2, 5);
  const BasisSet basis(dimer, "def2-tzvp");
  const MatrixD d = random_symmetric_density(basis.nbf(), 4);
  const IterationPolicy policy = quantized ? fp16_policy() : fp64_policy();

  MatrixD j_ref, k_ref;
  for (std::size_t batch_size : {1u, 7u, 32u}) {
    FockOptions options;
    options.batch_size = batch_size;
    const FockBuilder builder(basis, options, &ctx);
    MatrixD j, k;
    const FockStats stats = builder.build_jk(d, policy, j, k);
    EXPECT_EQ(stats.quartets_quantized > 0, quantized);
    if (batch_size == 1) {
      j_ref = j;
      k_ref = k;
      continue;
    }
    EXPECT_TRUE(same_bits(j, j_ref)) << "batch_size=" << batch_size;
    EXPECT_TRUE(same_bits(k, k_ref)) << "batch_size=" << batch_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, BatchInvarianceTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Fp16" : "Fp64";
                         });

// --- Two GEMMs per quartet -----------------------------------------------------

class GemmCountTest : public ::testing::TestWithParam<bool> {};

TEST_P(GemmCountTest, BuildJkRunsExactlyTwoGemmsPerQuartet) {
#if !MAKO_OBSERVABILITY
  GTEST_SKIP() << "registry counters are compiled out";
#else
  const bool quantized = GetParam();
  // Pinned to the default backend: its kernels count gemm.calls, and it has
  // the quantized datapath.
  ExecutionContextOptions ctx_opt;
  ctx_opt.backend = GemmBackendRegistry::kDefaultName;
  ctx_opt.make_active = false;
  const ExecutionContext ctx(ctx_opt);
  const Molecule water = make_water();
  const BasisSet basis(water, "def2-tzvp");
  const FockBuilder builder(basis, {}, &ctx);
  const MatrixD d = random_symmetric_density(basis.nbf(), 8);

  const std::int64_t q0 = counter("kernel.quartets");
  const std::int64_t g0 = counter("gemm.calls");
  MatrixD j, k;
  const FockStats stats = builder.build_jk(
      d, quantized ? fp16_policy() : fp64_policy(), j, k);
  const std::int64_t quartets = counter("kernel.quartets") - q0;
  const std::int64_t gemms = counter("gemm.calls") - g0;

  EXPECT_EQ(stats.quartets_quantized > 0, quantized);
  EXPECT_EQ(quartets, stats.quartets_fp64 + stats.quartets_quantized);
  ASSERT_GT(quartets, 0);
  EXPECT_EQ(gemms, 2 * quartets);
#endif
}

INSTANTIATE_TEST_SUITE_P(Plans, GemmCountTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Fp16" : "Fp64";
                         });

}  // namespace
}  // namespace mako
