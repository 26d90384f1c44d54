// The per-iteration precision plan — the single artifact every precision
// consumer reads.
//
// One immutable IterationPrecisionPlan per SCF iteration is emitted by the
// PrecisionGovernor (precision/governor.hpp) and consumed by the Fock
// routing pass (FP64/quantized/prune thresholds, per-angular-momentum cap),
// the quantizer (kernel storage format), and the GEMM backend (via the
// KernelConfig the Fock builder derives from it).  Consumers never construct
// or mutate plans with ad-hoc thresholds — that rule is enforced by
// scripts/check_precision_owners.sh (wired into ctest).
#pragma once

#include <cstdint>

#include "util/precision.hpp"

namespace mako {

/// Why the governor emitted the plan it did — the answer to "why did this
/// quartet run at FP16?", carried through telemetry.
enum class PlanReason : std::uint8_t {
  kAdaptiveSchedule,      ///< convergence-aware schedule (Section 3.2.3)
  kConvergedExact,        ///< error under the exact-switch point: pure FP64
  kFinalExactPolish,      ///< converged on quantized kernels; FP64 re-run
  kModeForced,            ///< --precision fp64 pins everything to FP64
  kQuantizationDisabled,  ///< quantization not enabled for this run
  kRecoveryLatch,         ///< recovery rung 3 latched FP64 for the run
};

[[nodiscard]] const char* to_string(PlanReason reason) noexcept;

/// Immutable precision plan for one SCF iteration.
struct IterationPrecisionPlan {
  Precision quant_precision = Precision::kFP16;  ///< kernel for "moderate"
  double fp64_threshold = 1e-4;   ///< weighted bound above which FP64 is used
  double prune_threshold = 1e-11; ///< weighted bound below which we skip
  bool allow_quantized = true;    ///< false in the final exact iterations
  /// Highest total angular momentum a quartet may carry and still run
  /// quantized; quartets with any shell above this run FP64 regardless of
  /// their weighted bound (high-L integrals are the most rounding-sensitive).
  /// Negative means "no cap".
  int quantized_max_l = -1;
  PlanReason reason = PlanReason::kAdaptiveSchedule;
};

/// Historical name, kept so plan consumers (Fock builder signatures, tests)
/// read naturally: the "policy" of an iteration IS its precision plan.
using IterationPolicy = IterationPrecisionPlan;

}  // namespace mako
