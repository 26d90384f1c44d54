// PrecisionGovernor — the single source of truth for every precision
// decision (Section 3.2.3 made first-class).
//
// Before this layer, "what runs at which precision" was smeared across
// three half-owners: the quantmako scheduler picked per-iteration
// thresholds, the recovery ladder latched FP64 out of band, and the Fock
// routing pass applied the thresholds per quartet.  The governor inverts
// that: it consumes the convergence error, health-sentinel feedback and
// recovery-ladder directives, and emits one immutable IterationPrecisionPlan
// per SCF iteration.  Everything downstream is a pure plan consumer.
//
// Lifecycle: ExecutionContext holds the PrecisionConfig and acts as the
// governor factory (make_governor); the SCF driver constructs one governor
// per run (the governor is stateful — FP64 latch, exact-final flag, ladder
// stage — and a context may be shared by concurrent batch jobs).  Governor state is checkpointed (GovernorState)
// so a restored run resumes the exact policy trajectory.
#pragma once

#include <cstdint>
#include <string_view>

#include "precision/plan.hpp"
#include "robust/status.hpp"
#include "util/precision.hpp"

namespace mako {

/// User-facing precision mode (MakoOptions::precision, `mako --precision`,
/// MAKO_PRECISION).  kAdaptive is the paper's convergence-aware schedule;
/// kFP64 forces every operation to full precision; the fixed formats pin the
/// quantized-kernel storage format while keeping the adaptive thresholds.
enum class PrecisionMode : std::uint8_t {
  kAdaptive,
  kFP64,
  kFP32,
  kTF32,
  kFP16,
};

[[nodiscard]] const char* to_string(PrecisionMode mode) noexcept;

/// Parses a precision-mode name ("adaptive", "fp64", "fp32", "tf32",
/// "fp16").  Throws InputError (FaultKind::kInvalidInput) listing the valid
/// modes on anything else.
[[nodiscard]] PrecisionMode parse_precision_mode(std::string_view name);

/// Resolves a mode: an explicit name wins, ""
/// falls back to the MAKO_PRECISION environment variable, and an unset (or
/// empty) variable means kAdaptive.  Throws InputError on garbage in either
/// source, naming which one supplied the bad value.
[[nodiscard]] PrecisionMode resolve_precision_mode(std::string_view name);

/// Everything configurable about the governor's schedule.  The threshold
/// fields keep the names of the former quantmako SchedulerConfig; the
/// defaults reproduce the paper's convergence-aware settings.
struct PrecisionConfig {
  PrecisionMode mode = PrecisionMode::kAdaptive;
  Precision quant_precision = Precision::kFP16;
  double start_fp64_threshold = 1e-3;  ///< loose: most work quantized
  double end_fp64_threshold = 1e-7;    ///< tight: most work FP64
  double prune_threshold = 1e-11;
  /// SCF error below which quantization is switched off entirely so final
  /// energies are FP64-exact (the paper's "gradually tightening" endpoint).
  double exact_switch_error = 1e-6;
  /// Dynamic-precision ladder: far from convergence quantized kernels run at
  /// FP16; once the error drops below `ladder_switch_error` the governor
  /// steps them up to TF32 (latched) before the final FP64 iterations.
  /// Health-sentinel faults (divergence/oscillation) advance the step early.
  bool use_precision_ladder = false;
  double ladder_switch_error = 1e-3;
  /// Per-angular-momentum override: quartets with any shell of L above this
  /// stay FP64 even when their weighted bound lands in the quantized band.
  /// Negative disables the cap (the default — matches the pre-governor
  /// routing exactly).
  int quantized_max_l = -1;
};

/// Checkpointable governor state: a restored run must resume the exact
/// policy trajectory, including mid-run latches.
struct GovernorState {
  std::int32_t ladder_stage = 0;  ///< 0 = base format, 1 = TF32 step taken
  std::uint8_t fp64_latched = 0;  ///< recovery rung 3 fired
  std::uint8_t exact_final = 0;   ///< final FP64 polish pending/active
};

/// Stateful per-run precision authority.  Construct via
/// ExecutionContext::make_governor.
class PrecisionGovernor {
 public:
  /// `fallback_prune_threshold` is the Schwarz prune bound used whenever the
  /// plan is pure FP64 for a reason other than the adaptive schedule's own
  /// exact switch (ScfOptions::prune_threshold — kept distinct from
  /// PrecisionConfig::prune_threshold for exact pre-governor parity).
  PrecisionGovernor(PrecisionConfig config, bool enable_quantization,
                    double fallback_prune_threshold);

  /// The plan for an iteration whose incoming DIIS/commutator error is
  /// `err` (callers pass 1.0 for the first iteration).  Emits the
  /// "precision.plan" trace span and bumps the "precision.plans" counter.
  [[nodiscard]] IterationPrecisionPlan plan_for_iteration(int iteration,
                                                          double err);

  /// Recovery rung 3: force FP64 for the rest of the run.  Latches.
  void latch_fp64() noexcept { state_.fp64_latched = 1; }

  /// Convergence reached on quantized kernels: the next iteration re-runs
  /// at pure FP64 (the schedule's exact endpoint).  Latches.
  void request_exact_final() noexcept { state_.exact_final = 1; }

  /// Health-sentinel feedback.  Divergence/oscillation while the precision
  /// ladder is active advances the TF32 step early — noisy kernels are the
  /// first suspect when the trajectory misbehaves.  Other faults (and runs
  /// without the ladder) are no-ops here; rung 3 handles hard escalation.
  void observe_fault(FaultKind fault) noexcept;

  [[nodiscard]] bool fp64_latched() const noexcept {
    return state_.fp64_latched != 0;
  }
  [[nodiscard]] bool exact_final() const noexcept {
    return state_.exact_final != 0;
  }

  /// True when quantized kernels can execute this run: the mode wants
  /// them and quantization is enabled.
  [[nodiscard]] bool quantized_execution() const noexcept;

  [[nodiscard]] const PrecisionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const GovernorState& state() const noexcept { return state_; }
  /// Restores checkpointed state so the resumed trajectory is bit-identical.
  void restore(const GovernorState& state) noexcept { state_ = state; }

 private:
  [[nodiscard]] IterationPrecisionPlan fp64_plan(PlanReason reason) const;

  PrecisionConfig config_;
  bool enable_quantization_;
  double fallback_prune_threshold_;
  GovernorState state_;
};

}  // namespace mako
