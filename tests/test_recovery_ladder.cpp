// Integration tests for the SCF resilience ladder, driven end-to-end through
// the fault-injection harness: one test per recovery rung, plus the Communicator
// checksum-verify/retry path and the input-validation taxonomy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "parallel/communicator.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"
#include "scf/fock_plan.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

class RecoveryLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::compiled_in()) {
      GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
    }
  }
  void TearDown() override { FaultInjector::instance().disarm_all(); }

  static bool ladder_took(const ScfResult& r, RecoveryAction action) {
    return std::any_of(
        r.recovery_log.begin(), r.recovery_log.end(),
        [action](const RecoveryEvent& e) { return e.action == action; });
  }
};

TEST_F(RecoveryLadderTest, HealthyRunStaysOnRungZero) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ScfResult r = run_scf(w, bs, {});
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_FALSE(r.recovered());
  for (const auto& rec : r.iteration_log) {
    EXPECT_EQ(rec.fault_mask, 0u);
    EXPECT_EQ(rec.recovery_mask, 0u);
    EXPECT_EQ(rec.retries, 0);
  }
}

// Rung 3: a NaN poisoned into J by a quantized build must escalate to FP64
// within the same iteration and still converge to the FP64-exact energy —
// never a silently wrong one.
TEST_F(RecoveryLadderTest, NaNInJEscalatesToFp64AndConvergesExact) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_exact = run_scf(w, bs, {}).energy;

  FaultSpec spec;
  spec.mode = FaultMode::kNaN;
  spec.max_fires = -1;  // poison every quantized build; FP64 builds are inert
  FaultInjector::instance().arm("fock.j_poison", spec);

  ScfOptions opt;
  opt.enable_quantization = true;
  opt.precision.start_fp64_threshold = 1e2;  // route everything early
  const ScfResult r = run_scf(w, bs, opt);

  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_TRUE(r.fp64_latched);
  EXPECT_TRUE(ladder_took(r, RecoveryAction::kPrecisionEscalation));
  // The poisoned build was retried within its iteration.
  const bool retried = std::any_of(
      r.iteration_log.begin(), r.iteration_log.end(),
      [](const ScfIterationRecord& rec) { return rec.retries > 0; });
  EXPECT_TRUE(retried);
  EXPECT_NEAR(r.energy, e_exact, 1e-8);
}

// Same contract one layer deeper: corrupting the quantized E-operand cache
// inside KernelMako must surface as a non-finite J and recover identically.
TEST_F(RecoveryLadderTest, QuantizedOperandCorruptionRecovers) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_exact = run_scf(w, bs, {}).energy;

  FaultSpec spec;
  spec.max_fires = -1;
  FaultInjector::instance().arm("kernelmako.quant_e_tile", spec);

  ScfOptions opt;
  opt.enable_quantization = true;
  opt.precision.start_fp64_threshold = 1e2;
  const ScfResult r = run_scf(w, bs, opt);

  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.fp64_latched);
  EXPECT_NEAR(r.energy, e_exact, 1e-8);
}

// Rung 2: a persistent symmetric density perturbation produces no hard fault
// — only the soft oscillation/stagnation/divergence sentinels can see it —
// and must walk the ladder at least into damping.
TEST_F(RecoveryLadderTest, OscillationTriggersDamping) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_clean = run_scf(w, bs, {}).energy;

  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 0.3;
  spec.max_fires = 25;  // perturb long enough to outlast the DIIS reset
  FaultInjector::instance().arm("scf.density_perturb", spec);

  ScfOptions opt;
  opt.max_iterations = 100;
  const ScfResult r = run_scf(w, bs, opt);

  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(ladder_took(r, RecoveryAction::kDiisReset));
  EXPECT_TRUE(ladder_took(r, RecoveryAction::kDamping));
  EXPECT_NEAR(r.energy, e_clean, 1e-6);
}

// The ladder has four rungs.  A density perturbation on every iteration
// keeps the soft sentinels firing: the run climbs each rung once, in order,
// and detections past the top rung escalate no further.
TEST_F(RecoveryLadderTest, LadderClimbsFourRungsAndStops) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");

  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 0.3;
  spec.max_fires = -1;
  FaultInjector::instance().arm("scf.density_perturb", spec);

  ScfOptions opt;
  opt.max_iterations = 60;
  const ScfResult r = run_scf(w, bs, opt);

  const RecoveryAction rungs[] = {
      RecoveryAction::kDiisReset, RecoveryAction::kDamping,
      RecoveryAction::kPrecisionEscalation, RecoveryAction::kFockRebuild};
  ASSERT_EQ(r.recovery_log.size(), std::size(rungs));
  for (std::size_t i = 0; i < std::size(rungs); ++i) {
    EXPECT_EQ(r.recovery_log[i].action, rungs[i]) << "rung " << i + 1;
  }
  EXPECT_TRUE(r.fp64_latched);
  EXPECT_TRUE(r.full_rebuild_latched);

  // The sentinels fired again after the top rung, with nothing to climb.
  // A fresh run's iteration_log[i] is iteration i.
  const std::size_t top =
      static_cast<std::size_t>(r.recovery_log.back().iteration);
  bool fired_after_top = false;
  for (std::size_t i = top + 1; i < r.iteration_log.size(); ++i) {
    fired_after_top = fired_after_top || r.iteration_log[i].fault_mask != 0;
  }
  EXPECT_TRUE(fired_after_top);
}

// Rung 4: injected delta-density drift accumulates in the incremental J/K
// state; only latching full rebuilds clears it.
TEST_F(RecoveryLadderTest, IncrementalDriftLatchesFullRebuilds) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_full = run_scf(w, bs, {}).energy;

  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 1e-3;  // added to dJ(0,0) on every incremental build
  spec.max_fires = -1;
  FaultInjector::instance().arm("scf.incremental_drift", spec);

  ScfOptions opt;
  opt.incremental_fock = true;
  opt.incremental_rebuild_period = 100;  // periodic rebuilds never trigger
  opt.max_iterations = 100;
  const ScfResult r = run_scf(w, bs, opt);

  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.full_rebuild_latched);
  EXPECT_TRUE(ladder_took(r, RecoveryAction::kFockRebuild));
  EXPECT_NEAR(r.energy, e_full, 1e-6);
}

// Satellite: incremental and non-incremental Fock agree tightly at
// convergence when healthy (the drift test above covers the faulty case).
TEST_F(RecoveryLadderTest, IncrementalMatchesFullRebuildTightly) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions incr;
  incr.incremental_fock = true;
  const ScfResult r_full = run_scf(w, bs, {});
  const ScfResult r_incr = run_scf(w, bs, incr);
  EXPECT_TRUE(r_incr.converged);
  EXPECT_FALSE(r_incr.recovered());
  EXPECT_NEAR(r_full.energy, r_incr.energy, 1e-9);
}

// The rung-4 latch must keep *reusing* the cached FockPlan — a
// full (non-incremental) rebuild changes what is routed per iteration, not
// the screening plan itself.  Counter-based, not timing-based.
TEST_F(RecoveryLadderTest, FullRebuildLatchReusesCachedPlan) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");

  // Prime the per-context plan cache with a clean run: exactly one build.
  const ExecutionContext ctx;
  (void)run_scf(w, bs, {}, &ctx);
  const FockPlanCache& cache = ctx.components().get<FockPlanCache>();
  ASSERT_EQ(cache.builds(), 1);
  ASSERT_EQ(cache.hits(), 0);

  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 1e-3;
  spec.max_fires = -1;
  FaultInjector::instance().arm("scf.incremental_drift", spec);

  ScfOptions opt;
  opt.incremental_fock = true;
  opt.incremental_rebuild_period = 100;
  opt.max_iterations = 100;
  const ScfResult r = run_scf(w, bs, opt, &ctx);

  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.full_rebuild_latched);
  EXPECT_TRUE(ladder_took(r, RecoveryAction::kFockRebuild));
  // The rung-4 run *hit* the cached plan; it never reconstructed it.
  EXPECT_EQ(cache.builds(), 1) << "rung 4 rebuilt the screening plan";
  EXPECT_GE(cache.hits(), 1);
}

// Satellite site fock.plan_build: a NaN corrupted into the Schwarz bounds
// while the screening plan is constructed must be sanitized (replaced by the
// maximum finite bound, i.e. "never prune what we cannot bound"), so the run
// converges to the exact energy instead of silently dropping quartets for
// its entire lifetime — the plan is cached and outlives every iteration.
TEST_F(RecoveryLadderTest, PlanBuildCorruptionIsSanitized) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_exact = run_scf(w, bs, {}).energy;

  FaultSpec spec;
  spec.mode = FaultMode::kNaN;
  spec.max_fires = 1;
  FaultInjector::instance().arm("fock.plan_build", spec);

  // Fresh context -> fresh FockPlanCache -> the plan is actually rebuilt
  // (and corrupted) instead of served from another test's cache.
  const ExecutionContext ctx;
  const ScfResult r = run_scf(w, bs, {}, &ctx);

  EXPECT_EQ(FaultInjector::instance().fires("fock.plan_build"), 1u);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, e_exact, 1e-8);
}

// Satellite site fock.route: corrupting the per-block density maxima of one
// build mis-screens that single Fock build; SCF must self-heal (the next
// iteration recomputes the maxima) and still converge to the exact energy.
TEST_F(RecoveryLadderTest, RouteCorruptionSelfHeals) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_exact = run_scf(w, bs, {}).energy;

  FaultSpec spec;
  spec.mode = FaultMode::kNaN;
  spec.max_fires = 1;
  FaultInjector::instance().arm("fock.route", spec);

  const ExecutionContext ctx;
  const ScfResult r = run_scf(w, bs, {}, &ctx);

  EXPECT_EQ(FaultInjector::instance().fires("fock.route"), 1u);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, e_exact, 1e-8);
}

TEST_F(RecoveryLadderTest, AllreduceCorruptionRetriesAndRecovers) {
  Communicator comm(4);
  auto make_buffers = [] {
    std::vector<MatrixD> bufs;
    for (int r = 0; r < 4; ++r) {
      bufs.emplace_back(8, 8, static_cast<double>(r + 1));
    }
    return bufs;
  };

  auto clean = make_buffers();
  const double t_clean = comm.allreduce_sum(clean);
  EXPECT_EQ(comm.stats().retries, 0u);

  FaultSpec spec;
  spec.mode = FaultMode::kNaN;
  FaultInjector::instance().arm("simcomm.allreduce", spec);

  auto bufs = make_buffers();
  const double t_faulty = comm.allreduce_sum(bufs);
  EXPECT_EQ(comm.stats().retries, 1u);
  EXPECT_TRUE(comm.last_status().is_ok());
  // The reduction is still correct: 1+2+3+4 everywhere.
  for (const auto& b : bufs) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_DOUBLE_EQ(b.data()[i], 10.0);
    }
  }
  // The resend and backoff are folded into the modeled time.
  EXPECT_GT(t_faulty, t_clean);
}

TEST_F(RecoveryLadderTest, BroadcastDropRetriesAndRecovers) {
  Communicator comm(4);
  MatrixD payload(4, 4, 7.0);

  FaultSpec spec;
  spec.mode = FaultMode::kDrop;
  FaultInjector::instance().arm("simcomm.broadcast", spec);

  comm.broadcast(payload);
  EXPECT_EQ(comm.stats().retries, 1u);
  EXPECT_EQ(comm.stats().dropped, 1u);
  EXPECT_TRUE(comm.last_status().is_ok());
  EXPECT_DOUBLE_EQ(payload(2, 2), 7.0);
}

TEST_F(RecoveryLadderTest, ExhaustedRetryBudgetSurfacesFault) {
  Communicator comm(2);
  std::vector<MatrixD> bufs;
  bufs.emplace_back(4, 4, 1.0);
  bufs.emplace_back(4, 4, 2.0);

  FaultSpec spec;
  spec.mode = FaultMode::kNaN;
  spec.max_fires = -1;  // corrupt every attempt
  FaultInjector::instance().arm("simcomm.allreduce", spec);

  comm.allreduce_sum(bufs);
  EXPECT_EQ(comm.last_status().kind(), FaultKind::kCommCorruption);
  EXPECT_EQ(comm.stats().retries, 3u);  // 4 attempts, 3 resends
  // Inputs are left untouched for the caller to act on.
  EXPECT_DOUBLE_EQ(bufs[0](0, 0), 1.0);
  EXPECT_DOUBLE_EQ(bufs[1](0, 0), 2.0);
}

TEST_F(RecoveryLadderTest, InvalidInputsGetActionableDiagnostics) {
  const BasisSet water_bs(make_water(), "sto-3g");

  // Odd electron count: open-shell, with charge suggestions.
  Molecule radical = make_water();
  radical.set_charge(1);
  try {
    run_scf(radical, BasisSet(radical, "sto-3g"), {});
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("odd electron count"),
              std::string::npos);
  }

  // Non-positive electron count.
  Molecule stripped;
  stripped.add_atom(1, 0, 0, 0);
  stripped.set_charge(2);
  EXPECT_THROW(run_scf(stripped, BasisSet(stripped, "sto-3g"), {}),
               InputError);

  // More electron pairs than basis functions.
  Molecule crowded;
  crowded.add_atom(2, 0, 0, 0);  // He in STO-3G: one basis function
  crowded.set_charge(-2);        // 4 electrons, 2 occupied orbitals
  try {
    run_scf(crowded, BasisSet(crowded, "sto-3g"), {});
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("larger basis"), std::string::npos);
  }

  // Compatibility: InputError is still a std::invalid_argument.
  EXPECT_THROW(run_scf(radical, BasisSet(radical, "sto-3g"), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mako
