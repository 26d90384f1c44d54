// PrecisionGovernor unit tests: the convergence-aware schedule (Section
// 3.2.3), mode parsing/resolution, the FP16 -> TF32 -> FP64 precision
// ladder, recovery/exact-final latches, capability degradation, and
// checkpointable state round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "precision/governor.hpp"
#include "robust/status.hpp"

namespace mako {
namespace {

GemmCapabilities quantized_caps() {
  return GemmCapabilities{/*quantized=*/true,
                          "test backend with a quantized datapath"};
}

GemmCapabilities fp64_only_caps() {
  return GemmCapabilities{/*quantized=*/false,
                          "test backend without a quantized datapath"};
}

PrecisionGovernor make_governor(PrecisionConfig config = {},
                                bool enable_quantization = true,
                                GemmCapabilities caps = quantized_caps()) {
  return PrecisionGovernor(config, enable_quantization, std::move(caps),
                           "test", /*fallback_prune_threshold=*/1e-11);
}

// --- adaptive schedule ------------------------------------------------------

TEST(GovernorScheduleTest, StartOfRunUsesLooseThreshold) {
  PrecisionGovernor gov = make_governor();
  const IterationPrecisionPlan p = gov.plan_for_iteration(0, 1.0);
  EXPECT_TRUE(p.allow_quantized);
  EXPECT_EQ(p.reason, PlanReason::kAdaptiveSchedule);
  EXPECT_DOUBLE_EQ(p.fp64_threshold, 1e-3);  // t = 0 at err = 1
  EXPECT_DOUBLE_EQ(p.prune_threshold, 1e-11);
  EXPECT_EQ(p.quant_precision, Precision::kFP16);
}

TEST(GovernorScheduleTest, ThresholdTightensMonotonically) {
  PrecisionGovernor gov = make_governor();
  double prev = 1.0;
  double prev_thresh = 1e10;
  for (const double err : {1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
    const IterationPrecisionPlan p = gov.plan_for_iteration(0, err);
    EXPECT_TRUE(p.allow_quantized) << "err=" << err;
    EXPECT_LE(p.fp64_threshold, prev_thresh) << "err=" << err;
    prev_thresh = p.fp64_threshold;
    prev = err;
  }
  (void)prev;
  // Fully interpolated at the exact-switch boundary's neighborhood.
  EXPECT_NEAR(std::log10(prev_thresh), -3.0 + (5.0 / 6.0) * -4.0, 1e-12);
}

TEST(GovernorScheduleTest, ExactSwitchDisablesQuantization) {
  PrecisionGovernor gov = make_governor();
  const IterationPrecisionPlan p = gov.plan_for_iteration(5, 1e-7);
  EXPECT_FALSE(p.allow_quantized);
  EXPECT_DOUBLE_EQ(p.fp64_threshold, 0.0);
  EXPECT_EQ(p.reason, PlanReason::kConvergedExact);
  // The adaptive path keeps the schedule's own prune threshold.
  EXPECT_DOUBLE_EQ(p.prune_threshold, 1e-11);
}

// --- mode parsing / resolution ---------------------------------------------

TEST(PrecisionModeTest, ParsesEveryMode) {
  EXPECT_EQ(parse_precision_mode("adaptive"), PrecisionMode::kAdaptive);
  EXPECT_EQ(parse_precision_mode("fp64"), PrecisionMode::kFP64);
  EXPECT_EQ(parse_precision_mode("fp32"), PrecisionMode::kFP32);
  EXPECT_EQ(parse_precision_mode("tf32"), PrecisionMode::kTF32);
  EXPECT_EQ(parse_precision_mode("fp16"), PrecisionMode::kFP16);
}

TEST(PrecisionModeTest, RejectsGarbageWithTypedError) {
  try {
    (void)parse_precision_mode("float8");
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("float8"), std::string::npos);
  }
}

TEST(PrecisionModeTest, ResolvePrefersExplicitName) {
  ::setenv("MAKO_PRECISION", "fp16", 1);
  EXPECT_EQ(resolve_precision_mode("tf32"), PrecisionMode::kTF32);
  ::unsetenv("MAKO_PRECISION");
}

TEST(PrecisionModeTest, ResolveFallsBackToEnvThenAdaptive) {
  ::setenv("MAKO_PRECISION", "fp64", 1);
  EXPECT_EQ(resolve_precision_mode(""), PrecisionMode::kFP64);
  ::unsetenv("MAKO_PRECISION");
  EXPECT_EQ(resolve_precision_mode(""), PrecisionMode::kAdaptive);
}

TEST(PrecisionModeTest, ResolveRejectsGarbageEnv) {
  ::setenv("MAKO_PRECISION", "quantum", 1);
  try {
    (void)resolve_precision_mode("");
    ::unsetenv("MAKO_PRECISION");
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    ::unsetenv("MAKO_PRECISION");
    EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("MAKO_PRECISION"),
              std::string::npos);
  }
}

// --- fixed-format modes -----------------------------------------------------

TEST(GovernorModeTest, Fp64ModeForcesExactEverywhere) {
  PrecisionConfig cfg;
  cfg.mode = PrecisionMode::kFP64;
  PrecisionGovernor gov = make_governor(cfg, /*enable_quantization=*/true);
  EXPECT_FALSE(gov.quantized_execution());
  for (const double err : {1.0, 1e-2, 1e-5, 1e-8}) {
    const IterationPrecisionPlan p = gov.plan_for_iteration(0, err);
    EXPECT_FALSE(p.allow_quantized);
    EXPECT_DOUBLE_EQ(p.fp64_threshold, 0.0);
    EXPECT_EQ(p.reason, PlanReason::kModeForced);
    // Gated FP64 plans carry the fallback (ScfOptions) prune threshold.
    EXPECT_DOUBLE_EQ(p.prune_threshold, 1e-11);
  }
}

TEST(GovernorModeTest, FixedFormatsPinTheKernelAndImplyQuantization) {
  PrecisionConfig cfg;
  cfg.mode = PrecisionMode::kTF32;
  // enable_quantization=false: the fixed format implies it.
  PrecisionGovernor gov = make_governor(cfg, /*enable_quantization=*/false);
  EXPECT_TRUE(gov.quantized_execution());
  const IterationPrecisionPlan p = gov.plan_for_iteration(0, 0.5);
  EXPECT_TRUE(p.allow_quantized);
  EXPECT_EQ(p.quant_precision, Precision::kTF32);

  cfg.mode = PrecisionMode::kFP32;
  EXPECT_EQ(make_governor(cfg, false).plan_for_iteration(0, 0.5)
                .quant_precision,
            Precision::kFP32);
  cfg.mode = PrecisionMode::kFP16;
  EXPECT_EQ(make_governor(cfg, false).plan_for_iteration(0, 0.5)
                .quant_precision,
            Precision::kFP16);
}

TEST(GovernorModeTest, QuantizationOffMeansPureFp64) {
  PrecisionGovernor gov = make_governor({}, /*enable_quantization=*/false);
  const IterationPrecisionPlan p = gov.plan_for_iteration(0, 1.0);
  EXPECT_FALSE(p.allow_quantized);
  EXPECT_EQ(p.reason, PlanReason::kQuantizationDisabled);
}

// --- the precision ladder (satellite 1) -------------------------------------

TEST(GovernorLadderTest, StepsFp16ToTf32ToFp64OnScriptedTrajectory) {
  PrecisionConfig cfg;
  cfg.use_precision_ladder = true;
  PrecisionGovernor gov = make_governor(cfg);

  // Scripted convergence-error trajectory of a well-behaved SCF run.
  const double errs[] = {1.0, 3e-1, 2e-2, 8e-4, 2e-4, 4e-7};
  const Precision want_format[] = {Precision::kFP16, Precision::kFP16,
                                   Precision::kFP16, Precision::kTF32,
                                   Precision::kTF32, Precision::kTF32};
  const bool want_quantized[] = {true, true, true, true, true, false};
  for (int i = 0; i < 6; ++i) {
    const IterationPrecisionPlan p = gov.plan_for_iteration(i, errs[i]);
    EXPECT_EQ(p.quant_precision, want_format[i]) << "iter " << i;
    EXPECT_EQ(p.allow_quantized, want_quantized[i]) << "iter " << i;
  }
  EXPECT_EQ(gov.state().ladder_stage, 1);
}

TEST(GovernorLadderTest, StepLatchesAgainstNoisyErrors) {
  PrecisionConfig cfg;
  cfg.use_precision_ladder = true;
  PrecisionGovernor gov = make_governor(cfg);
  EXPECT_EQ(gov.plan_for_iteration(0, 5e-4).quant_precision,
            Precision::kTF32);
  // Error bounces back up: the TF32 step must not revert to FP16.
  EXPECT_EQ(gov.plan_for_iteration(1, 0.3).quant_precision,
            Precision::kTF32);
}

TEST(GovernorLadderTest, SoftFaultAdvancesTheStepEarly) {
  PrecisionConfig cfg;
  cfg.use_precision_ladder = true;
  PrecisionGovernor gov = make_governor(cfg);
  EXPECT_EQ(gov.plan_for_iteration(0, 0.5).quant_precision,
            Precision::kFP16);
  gov.observe_fault(FaultKind::kDivergence);
  EXPECT_EQ(gov.plan_for_iteration(1, 0.5).quant_precision,
            Precision::kTF32);
}

TEST(GovernorLadderTest, FaultsAreNoOpsWithoutTheLadder) {
  PrecisionGovernor gov = make_governor();
  gov.observe_fault(FaultKind::kDivergence);
  gov.observe_fault(FaultKind::kOscillation);
  EXPECT_EQ(gov.state().ladder_stage, 0);
  EXPECT_EQ(gov.plan_for_iteration(0, 0.5).quant_precision,
            Precision::kFP16);
}

// --- latches ----------------------------------------------------------------

TEST(GovernorLatchTest, Fp64LatchOverridesTheSchedule) {
  PrecisionGovernor gov = make_governor();
  EXPECT_TRUE(gov.plan_for_iteration(0, 1.0).allow_quantized);
  gov.latch_fp64();
  const IterationPrecisionPlan p = gov.plan_for_iteration(1, 1.0);
  EXPECT_FALSE(p.allow_quantized);
  EXPECT_EQ(p.reason, PlanReason::kRecoveryLatch);
  EXPECT_TRUE(gov.fp64_latched());
}

TEST(GovernorLatchTest, ExactFinalRequestsOnePureFp64Pass) {
  PrecisionGovernor gov = make_governor();
  gov.request_exact_final();
  const IterationPrecisionPlan p = gov.plan_for_iteration(3, 1e-8);
  EXPECT_FALSE(p.allow_quantized);
  EXPECT_EQ(p.reason, PlanReason::kFinalExactPolish);
  EXPECT_TRUE(gov.exact_final());
}

// --- capability degradation (satellite 2) -----------------------------------

TEST(GovernorDegradationTest, MissingDatapathIsObservable) {
  obs::Counter& degrades = obs::MetricsRegistry::global().counter(
      "precision.capability_degradations");
  const std::int64_t before = degrades.value();
  PrecisionGovernor gov =
      make_governor({}, /*enable_quantization=*/true, fp64_only_caps());
  EXPECT_EQ(degrades.value(), before + 1);
  EXPECT_FALSE(gov.quantized_execution());
  EXPECT_NE(gov.degradation_reason().find("no reduced-precision datapath"),
            std::string::npos);
  const IterationPrecisionPlan p = gov.plan_for_iteration(0, 1.0);
  EXPECT_FALSE(p.allow_quantized);
  EXPECT_EQ(p.reason, PlanReason::kCapabilityDegraded);
}

TEST(GovernorDegradationTest, NoDegradationWithoutQuantizedRequest) {
  obs::Counter& degrades = obs::MetricsRegistry::global().counter(
      "precision.capability_degradations");
  const std::int64_t before = degrades.value();
  PrecisionGovernor gov =
      make_governor({}, /*enable_quantization=*/false, fp64_only_caps());
  EXPECT_EQ(degrades.value(), before);
  EXPECT_TRUE(gov.degradation_reason().empty());
}

// --- checkpointable state ----------------------------------------------------

TEST(GovernorStateTest, RestoreResumesTheExactTrajectory) {
  PrecisionConfig cfg;
  cfg.use_precision_ladder = true;
  PrecisionGovernor a = make_governor(cfg);
  (void)a.plan_for_iteration(0, 5e-4);  // takes the TF32 step
  a.latch_fp64();
  a.request_exact_final();

  PrecisionGovernor b = make_governor(cfg);
  b.restore(a.state());
  EXPECT_TRUE(b.fp64_latched());
  EXPECT_TRUE(b.exact_final());
  EXPECT_EQ(b.state().ladder_stage, 1);
  // Identical inputs now yield identical plans.
  for (const double err : {1.0, 1e-4, 1e-8}) {
    const IterationPrecisionPlan pa = a.plan_for_iteration(7, err);
    const IterationPrecisionPlan pb = b.plan_for_iteration(7, err);
    EXPECT_EQ(pa.allow_quantized, pb.allow_quantized);
    EXPECT_EQ(pa.quant_precision, pb.quant_precision);
    EXPECT_DOUBLE_EQ(pa.fp64_threshold, pb.fp64_threshold);
    EXPECT_EQ(pa.reason, pb.reason);
  }
}

// --- per-angular-momentum override -----------------------------------------

TEST(GovernorMaxLTest, CapRidesOnEveryPlan) {
  PrecisionConfig cfg;
  cfg.quantized_max_l = 1;
  PrecisionGovernor gov = make_governor(cfg);
  EXPECT_EQ(gov.plan_for_iteration(0, 1.0).quantized_max_l, 1);
  gov.latch_fp64();
  EXPECT_EQ(gov.plan_for_iteration(1, 1.0).quantized_max_l, 1);
}

}  // namespace
}  // namespace mako
