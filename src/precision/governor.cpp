#include "precision/governor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mako {

const char* to_string(PlanReason reason) noexcept {
  switch (reason) {
    case PlanReason::kAdaptiveSchedule:
      return "adaptive";
    case PlanReason::kConvergedExact:
      return "converged-exact";
    case PlanReason::kFinalExactPolish:
      return "exact-polish";
    case PlanReason::kModeForced:
      return "mode-forced";
    case PlanReason::kQuantizationDisabled:
      return "quantization-off";
    case PlanReason::kRecoveryLatch:
      return "recovery-latch";
  }
  return "unknown";
}

const char* to_string(PrecisionMode mode) noexcept {
  switch (mode) {
    case PrecisionMode::kAdaptive:
      return "adaptive";
    case PrecisionMode::kFP64:
      return "fp64";
    case PrecisionMode::kFP32:
      return "fp32";
    case PrecisionMode::kTF32:
      return "tf32";
    case PrecisionMode::kFP16:
      return "fp16";
  }
  return "unknown";
}

PrecisionMode parse_precision_mode(std::string_view name) {
  if (name == "adaptive") return PrecisionMode::kAdaptive;
  if (name == "fp64") return PrecisionMode::kFP64;
  if (name == "fp32") return PrecisionMode::kFP32;
  if (name == "tf32") return PrecisionMode::kTF32;
  if (name == "fp16") return PrecisionMode::kFP16;
  char msg[192];
  std::snprintf(msg, sizeof msg,
                "unknown precision mode '%.64s'; valid modes: adaptive, "
                "fp64, fp32, tf32, fp16",
                std::string(name).c_str());
  throw InputError(FaultKind::kInvalidInput, msg);
}

PrecisionMode resolve_precision_mode(std::string_view name) {
  if (!name.empty()) return parse_precision_mode(name);
  const char* env = std::getenv("MAKO_PRECISION");
  if (env == nullptr || *env == '\0') return PrecisionMode::kAdaptive;
  try {
    return parse_precision_mode(env);
  } catch (const InputError&) {
    char msg[224];
    std::snprintf(msg, sizeof msg,
                  "MAKO_PRECISION='%.64s' is not a valid precision mode; "
                  "valid modes: adaptive, fp64, fp32, tf32, fp16 (or unset "
                  "the variable)",
                  env);
    throw InputError(FaultKind::kInvalidInput, msg);
  }
}

namespace {

/// Fixed-format modes pin the quantized-kernel storage format.
[[nodiscard]] bool is_fixed_format(PrecisionMode mode) noexcept {
  return mode == PrecisionMode::kFP32 || mode == PrecisionMode::kTF32 ||
         mode == PrecisionMode::kFP16;
}

[[nodiscard]] Precision pinned_format(PrecisionMode mode) noexcept {
  switch (mode) {
    case PrecisionMode::kFP32:
      return Precision::kFP32;
    case PrecisionMode::kTF32:
      return Precision::kTF32;
    default:
      return Precision::kFP16;
  }
}

}  // namespace

PrecisionGovernor::PrecisionGovernor(PrecisionConfig config,
                                     bool enable_quantization,
                                     double fallback_prune_threshold)
    : config_(config),
      enable_quantization_(enable_quantization ||
                           is_fixed_format(config.mode)),
      fallback_prune_threshold_(fallback_prune_threshold) {}

bool PrecisionGovernor::quantized_execution() const noexcept {
  return config_.mode != PrecisionMode::kFP64 && enable_quantization_;
}

IterationPrecisionPlan PrecisionGovernor::fp64_plan(PlanReason reason) const {
  IterationPrecisionPlan p;
  p.quant_precision = config_.quant_precision;
  p.allow_quantized = false;
  p.fp64_threshold = 0.0;
  p.prune_threshold = fallback_prune_threshold_;
  p.quantized_max_l = config_.quantized_max_l;
  p.reason = reason;
  return p;
}

void PrecisionGovernor::observe_fault(FaultKind fault) noexcept {
  if (!config_.use_precision_ladder) return;
  if (fault == FaultKind::kDivergence || fault == FaultKind::kOscillation) {
    if (state_.ladder_stage < 1) state_.ladder_stage = 1;
  }
}

IterationPrecisionPlan PrecisionGovernor::plan_for_iteration(int iteration,
                                                             double err) {
  obs::TraceSpan span(obs::TraceCat::kQuant, "precision.plan");
  MAKO_METRIC_COUNT("precision.plans", 1);

  IterationPrecisionPlan p;
  if (config_.mode == PrecisionMode::kFP64) {
    p = fp64_plan(PlanReason::kModeForced);
  } else if (!enable_quantization_) {
    p = fp64_plan(PlanReason::kQuantizationDisabled);
  } else if (state_.fp64_latched != 0) {
    p = fp64_plan(PlanReason::kRecoveryLatch);
  } else if (state_.exact_final != 0) {
    p = fp64_plan(PlanReason::kFinalExactPolish);
  } else {
    // Convergence-aware schedule (the former quantmako scheduler, verbatim
    // in its arithmetic so pre-governor trajectories reproduce bitwise).
    p.quant_precision = is_fixed_format(config_.mode)
                            ? pinned_format(config_.mode)
                            : config_.quant_precision;
    p.prune_threshold = config_.prune_threshold;
    p.quantized_max_l = config_.quantized_max_l;
    if (config_.mode == PrecisionMode::kAdaptive &&
        config_.use_precision_ladder) {
      // Dynamic-precision ladder: step up from FP16 to TF32 as convergence
      // approaches.  The step latches (and sentinel faults advance it early)
      // so a noisy error trajectory cannot bounce the kernel format.
      if (err <= config_.ladder_switch_error && state_.ladder_stage < 1) {
        state_.ladder_stage = 1;
      }
      if (state_.ladder_stage >= 1) p.quant_precision = Precision::kTF32;
    }

    if (err <= config_.exact_switch_error) {
      // Final stretch: every surviving integral at FP64.
      p.allow_quantized = false;
      p.fp64_threshold = 0.0;
      p.reason = PlanReason::kConvergedExact;
    } else {
      // Interpolate the FP64 threshold geometrically between the loose and
      // tight settings as the SCF error drops from 1 to the exact-switch
      // point.
      const double lo = std::log10(std::max(err, config_.exact_switch_error));
      const double hi = 0.0;  // log10(1)
      const double span_log = std::log10(config_.exact_switch_error);
      const double t = std::clamp((lo - hi) / span_log, 0.0, 1.0);
      const double log_thresh =
          std::log10(config_.start_fp64_threshold) +
          t * (std::log10(config_.end_fp64_threshold) -
               std::log10(config_.start_fp64_threshold));
      p.fp64_threshold = std::pow(10.0, log_thresh);
      p.allow_quantized = true;
      p.reason = PlanReason::kAdaptiveSchedule;
    }
  }

  if (span.active()) {
    char args[128];
    std::snprintf(args, sizeof args,
                  "\"iter\":%d,\"reason\":\"%s\",\"format\":\"%s\","
                  "\"quantized\":%s",
                  iteration, to_string(p.reason),
                  to_string(p.quant_precision),
                  p.allow_quantized ? "true" : "false");
    span.set_args(args);
  }
  return p;
}

}  // namespace mako
