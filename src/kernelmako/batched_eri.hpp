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
// The operator-level optimizations stay toggleable for the Fig-7 ablation:
//   * Lightweight layout swizzle — the batch's r-integrals are produced in
//     striped layout (the coalesced-write order) and converted to the
//     blocked layout MatMul requires through XOR-swizzled tiles;
//   * GEMM coalescing — P assembly, GEMM1 and GEMM2 of a quartet run
//     back-to-back while the tiles are hot (Eq. 11); unfused, every P of the
//     batch is staged first and the GEMMs run as separate passes.
//
// Quantized execution (QuantMako, Section 3.2) plugs in through the same
// pipeline: both GEMMs run at FP16/TF32 with FP32 accumulation; E' carries a
// static per-pair scale, P and T per-quartet scales, so results do not depend
// on how quartets are batched.  r/pq stages stay FP64 (stage-aware
// quantization).
#pragma once

#include <span>
#include <vector>

#include "accel/device.hpp"
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

/// Kernel configuration: precision plus the Fig-7 ablation toggles.
struct KernelConfig {
  GemmConfig gemm{};            ///< GEMM precision
  bool fuse_gemms = true;       ///< per-quartet P -> GEMM1 -> GEMM2 (Eq. 11)
  bool use_swizzle = true;      ///< swizzled striped->blocked conversion
  bool group_scaling = true;    ///< per-pair / per-quartet quantization scales
  /// FP32 in-kernel accumulation with FP64 hand-off (Section 3.2.2).  When
  /// false in FP16 mode, the Table-2 "Baseline FP16" kernel (naive binary16
  /// accumulator) runs instead.
  bool dual_stage_accumulation = true;

  [[nodiscard]] bool quantized() const noexcept {
    return gemm.precision != Precision::kFP64;
  }
};

/// Work/statistics record of a batch execution, consumed by the device
/// time model and the benchmark harnesses.
struct BatchStats {
  double gemm_flops = 0.0;
  double scalar_flops = 0.0;
  double global_bytes = 0.0;
  int kernel_launches = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] KernelWork work(Precision p) const {
    return KernelWork{gemm_flops, scalar_flops, global_bytes, kernel_launches,
                      p};
  }
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
