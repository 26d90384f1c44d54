// KernelMako: the matrix-aligned batched ERI engine (Section 3.1).
//
// Every quartet runs as exactly two GEMMs, whatever its class and
// contraction degree (Eq. 7 with the primitive sums inside the GEMM
// reduction):
//
//     T       = E'_AB^T x P        [nsb x K_CD*nhk]
//     (ab|cd) = T x E'_CD          [nsb x nsk], already spherical
//
// E'_AB is the shell pair's stacked operand (PairOperand): the Hermite->
// Cartesian matrices of all K_AB primitive pairs stacked row-wise, with the
// Cartesian->spherical transform folded in.  P is the quartet's Hermite
// matrix indexed [(jp,hp),(kp,hq)] = (-1)^{|q~|} R^{jp,kp}_{p~+q~} (Eq. 6),
// built from the batch's r-integrals (Eq. 4-5).  Stacked operands are
// iteration-invariant: FockPlan builds them once per shell pair and routed
// quartets point at them; direct callers pass none and the engine builds the
// same operands into its scratch arena.
//
// Stage 1 writes the batch's r-integrals quartet-blocked (item-major), the
// layout P assembly reads, and each quartet's P -> GEMM1 -> GEMM2 runs
// back-to-back while its tiles are hot (GEMM coalescing, Eq. 11).  The
// paper's striped-write/swizzled-transpose and unfused variants are GPU
// memory-traffic claims; the host runs neither, and bench/ models them.
//
// Quantized execution (QuantMako, Section 3.2) plugs in through the same
// pipeline: both GEMMs run at FP16/TF32 with FP32 accumulation; E' carries a
// static per-pair scale, P and T per-quartet scales, so results do not depend
// on how quartets are batched.  r/pq stages stay FP64 (stage-aware
// quantization).
#pragma once

#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "kernelmako/class_plan.hpp"
#include "kernelmako/eri_class.hpp"
#include "linalg/backend.hpp"

namespace mako {

/// One shell quartet to evaluate.  All quartets of a batch must share the
/// same EriClassKey.  `bra`/`ket` are the stacked operands of (a, b) and
/// (c, d) when the caller owns them (FockPlan); null operands are built by
/// the engine.
struct QuartetRef {
  const Shell* a = nullptr;
  const Shell* b = nullptr;
  const Shell* c = nullptr;
  const Shell* d = nullptr;
  const PairOperand* bra = nullptr;
  const PairOperand* ket = nullptr;
};

/// Kernel configuration: the GEMM precision.
struct KernelConfig {
  GemmConfig gemm{};

  [[nodiscard]] bool quantized() const noexcept {
    return gemm.precision != Precision::kFP64;
  }
};

/// What one batch execution did: its GEMM work and wall time.
struct BatchStats {
  double gemm_flops = 0.0;
  double wall_seconds = 0.0;
};

/// Batched matrix-aligned ERI engine.
///
/// Every basis-transformation GEMM dispatches through a GemmBackend; the
/// ExecutionContext (via FockBuilder) injects the run's backend and plan
/// cache.  When none is injected the engine pins the registry's built-in
/// default backend — deliberately ignoring the MAKO_BACKEND ambient override
/// so direct unit tests of quantized kernel numerics stay deterministic.
/// Quantized execution additionally requires the backend's `quantized`
/// capability; without it the transform GEMMs degrade to exact FP64.
class BatchedEriEngine {
 public:
  explicit BatchedEriEngine(KernelConfig config = {},
                            const GemmBackend* backend = nullptr,
                            EriPlanCache* plans = nullptr)
      : config_(config), backend_(backend), plans_(plans) {}

  [[nodiscard]] const KernelConfig& config() const noexcept { return config_; }

  /// The backend this engine dispatches through.
  [[nodiscard]] const GemmBackend& backend() const;

  /// Computes spherical quartets for a class-homogeneous batch.
  /// out is resized to batch.size(); out[i] is row-major
  /// [nsph(la)][nsph(lb)][nsph(lc)][nsph(ld)].
  /// Returns execution statistics.
  ///
  /// Resolves the class plan from the process-wide cache and executes on a
  /// thread-local scratch arena — steady-state calls are allocation-free.
  BatchStats compute_batch(const EriClassKey& key,
                           std::span<const QuartetRef> batch,
                           std::vector<std::vector<double>>& out) const;

  /// Plan-explicit variant: executes against a pre-resolved class plan and a
  /// caller-owned scratch arena (one per thread).  Callers whose batches are
  /// pre-classified by construction (FockPlan routing emits class-segmented
  /// spans) pass `verify_class = false` to skip the per-quartet homogeneity
  /// checks on the hot path.
  BatchStats compute_batch(const EriClassPlan& plan,
                           std::span<const QuartetRef> batch,
                           std::vector<std::vector<double>>& out,
                           EriScratch& scratch,
                           bool verify_class = true) const;

  /// Derives the class key of a quartet (contraction degrees included).
  static EriClassKey classify(const QuartetRef& q);

 private:
  KernelConfig config_;
  const GemmBackend* backend_;  ///< null -> registry default
  EriPlanCache* plans_;         ///< null -> process-wide cache
};

}  // namespace mako
