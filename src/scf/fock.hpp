// Direct-SCF Fock builder.
//
// Enumerates symmetry-unique shell quartets with density-weighted Schwarz
// screening, routes each quartet to an FP64 or quantized kernel according to
// QuantMako's iteration policy, evaluates them in class-homogeneous
// KernelMako batches, and digests the integrals into the Coulomb (J) and
// exchange (K) matrices at FP64 — the second stage of dual-stage
// accumulation.  The per-quartet baseline the paper compares against lives
// in the benches (bench/reference_fock.hpp), not here.
//
// The iteration-invariant part of that work (Schwarz bounds, the sorted
// significant-pair list, the quartet->class partition) lives in a FockPlan
// built once per basis and cached on the ExecutionContext; build_jk performs
// only the density-dependent routing pass — parallelized over pair blocks —
// plus batch evaluation and digestion.  See fock_plan.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "kernelmako/batched_eri.hpp"
#include "linalg/matrix.hpp"
#include "precision/plan.hpp"
#include "robust/status.hpp"
#include "scf/fock_plan.hpp"

namespace mako {

class ExecutionContext;

/// Fock build configuration.  The routing pass, batch evaluation and J/K
/// digestion always run sharded over the context's pool; a 1-thread pool
/// runs every shard inline, in slice order.
struct FockOptions {
  std::size_t batch_size = 32;  ///< quartets per Mako batch
};

/// Precision route of a quartet under the paper's integral-level scheduling.
enum class IntegralClass {
  kFull,       ///< critical: evaluate at FP64
  kQuantized,  ///< moderate: evaluate with the quantized kernel
  kPruned,     ///< negligible: skip entirely
};

/// Classifies a quartet from its density-weighted Schwarz estimate
/// `q_ab * q_cd * d_max` against the two thresholds.
IntegralClass classify_integral(double weighted_bound, double fp64_threshold,
                                double prune_threshold);

/// Digests one spherical quartet tensor `v` (row-major [na][nb][nc][nd])
/// into J and K with the canonical 8-fold permutation weights, scaled by
/// `weight`.  Shared with the per-quartet bench baseline so both builds
/// accumulate identically.
void digest_quartet(const MatrixD& d, MatrixD& j, MatrixD& k, const Shell& sa,
                    const Shell& sb, const Shell& sc, const Shell& sd,
                    double weight, const std::vector<double>& v);

/// Execution statistics of one Fock build.
///
/// The per-stage timers are summed per-shard CPU time (eri/digest) or
/// wall-clock (route/jk_wall); every field is non-negative by construction.
/// With real concurrency the CPU sums legitimately exceed the corresponding
/// wall-clock window — compare eri+digest against jk_wall_seconds to read
/// the parallel efficiency.
struct FockStats {
  std::int64_t quartets_fp64 = 0;
  std::int64_t quartets_quantized = 0;
  std::int64_t quartets_pruned = 0;
  /// Quartets the plan's per-angular-momentum cap demoted from the
  /// quantized band to FP64 (counted into quartets_fp64 as well); 0 when
  /// the plan carries no cap (quantized_max_l < 0).
  std::int64_t quartets_fp64_high_l = 0;
  /// Quartets whose density-weighted bound was actually evaluated.
  std::int64_t screen_visited = 0;
  /// Quartets pruned in bulk by the sorted-pair early exit without ever
  /// being visited (counted into quartets_pruned as well).
  std::int64_t screen_pruned_early = 0;
  double eri_seconds = 0.0;     ///< summed shard CPU in batch/quartet eval
  double digest_seconds = 0.0;  ///< summed shard CPU in J/K digestion
  double route_seconds = 0.0;   ///< wall clock of dmax + routing pass
  double jk_wall_seconds = 0.0; ///< wall clock of eval+digest+reduce phase
  double gemm_flops = 0.0;
  /// Per-owner-slice compute time (eri + digest CPU seconds); slice s of
  /// FockPlan::kOwnerSlices.  Rank r of N owns the contiguous block
  /// [r*S/N, (r+1)*S/N), so the bench derives measured per-rank compute at
  /// any supported rank count from one single-rank build.
  std::array<double, FockPlan::kOwnerSlices> slice_compute_seconds{};
  /// Modeled collective time of the partial-J/K allreduces (zero on one
  /// rank).
  double comm_seconds = 0.0;
  /// Logical payload bytes moved by this build's collectives.
  std::uint64_t comm_bytes = 0;
  /// Verified-delivery resends during this build's collectives.
  std::int64_t comm_retries = 0;
  /// Health of this build's collectives: kCommCorruption when an allreduce
  /// exhausted its retry budget — J/K are then unusable and the SCF driver
  /// must hard-fault the iteration (sentinel audits cannot catch this: a
  /// partial J is still symmetric and finite).
  Status comm_status = Status::ok();
  /// True when the context's CancelToken tripped mid-build and shards bailed
  /// early.  J/K are then PARTIAL — the caller must discard them (the SCF
  /// driver checks this before any audit so a half-built Fock never reads as
  /// a numerical fault).
  bool cancelled = false;
};

/// Builds J and K for a given (symmetric) density matrix.
///
/// Thread-compatible, not thread-safe: one builder per concurrent caller
/// (build_jk reuses per-builder scratch buffers across calls).
class FockBuilder {
 public:
  /// `ctx` supplies the GEMM backend, plan cache, thread pool and
  /// communicator of the run; null builds a default context of the
  /// builder's own.  The
  /// FockPlan is resolved from the context's FockPlanCache, so repeated
  /// builders over one live basis share one plan.
  FockBuilder(const BasisSet& basis, FockOptions options = {},
              const ExecutionContext* ctx = nullptr);
  ~FockBuilder();

  /// Computes the Coulomb and exchange matrices of `density` (AO basis,
  /// closed-shell convention D = 2 * C_occ C_occ^T) under the given
  /// precision policy.  J and K are resized to nbf x nbf.
  FockStats build_jk(const MatrixD& density, const IterationPolicy& policy,
                     MatrixD& j, MatrixD& k) const;

  [[nodiscard]] const MatrixD& schwarz() const noexcept {
    return plan_->schwarz();
  }
  [[nodiscard]] const FockPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const FockOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Scratch;  ///< reusable per-builder working buffers (fock.cpp)

  const BasisSet& basis_;
  FockOptions options_;
  std::unique_ptr<ExecutionContext> own_ctx_;  ///< set when given no context
  const ExecutionContext* ctx_;  ///< never null after construction
  std::shared_ptr<const FockPlan> plan_;  ///< cache-shared, never null
  /// One Mako engine per (class, precision), created on first use and
  /// reused across buckets and successive build_jk calls.  Mutated only in
  /// the serial section of build_jk.
  mutable std::map<std::pair<EriClassKey, Precision>, BatchedEriEngine>
      engines_;
  mutable std::unique_ptr<Scratch> scratch_;
};

}  // namespace mako
