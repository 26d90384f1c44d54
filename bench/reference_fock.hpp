// The per-quartet Fock baseline of Figs 8/9 (GPU4PySCF and QUICK roles).
//
// The paper measures Mako against per-quartet engines that are separate
// programs.  This is that program on the host: it routes the same screened
// quartet set as FockBuilder::build_jk (the FockPlan's sorted pairs, the same
// density-weighted Schwarz bound and keep threshold), then evaluates one
// quartet at a time with ReferenceEriEngine and digests it with the
// production digest_quartet, serially.  Quantized routing degrades to FP64:
// the baseline has no reduced-precision path.  Only benches and their tests
// use it; the library never does.
#pragma once

#include <cstdint>
#include <memory>

#include "basis/basis_set.hpp"
#include "eri_reference.hpp"
#include "linalg/matrix.hpp"
#include "precision/plan.hpp"
#include "scf/fock_plan.hpp"
#include "scf/scf.hpp"

namespace mako {

/// QUICK's angular-momentum ceiling: f functions, no g.
inline constexpr int kQuickMaxL = 3;

/// Work and wall time of one baseline build.
struct ReferenceFockStats {
  std::int64_t quartets_computed = 0;  ///< kept quartets, all at FP64
  std::int64_t quartets_pruned = 0;
  double seconds = 0.0;  ///< wall clock of the whole build
};

/// Serial per-quartet J/K builder.
class ReferenceFockBuilder {
 public:
  /// Throws std::domain_error when `basis` holds a shell above `max_l`
  /// (the QUICK role passes kQuickMaxL).  The builder builds its own
  /// FockPlan, the same plan a FockBuilder over `basis` builds.
  explicit ReferenceFockBuilder(const BasisSet& basis,
                                int max_l = ReferenceEriEngine::kMaxL);

  /// J and K of `density` under `policy`, resized to nbf x nbf.
  ReferenceFockStats build_jk(const MatrixD& density,
                              const IterationPolicy& policy, MatrixD& j,
                              MatrixD& k) const;

 private:
  const BasisSet& basis_;
  std::shared_ptr<const FockPlan> plan_;
};

/// The precision plan of `run`'s last iteration as its telemetry records it:
/// the FP64 and prune thresholds and whether quantized routing was allowed.
[[nodiscard]] IterationPolicy final_policy(const ScfResult& run);

/// The Figs 8/9 baseline iteration on one Mako run.  Every J/K wall is the
/// median of 3 samples; the Mako builds are warmed by one untimed build
/// first, as they run warm inside the SCF loop.
struct BaselineIteration {
  double mako_jk_s = 0.0;  ///< FockBuilder::build_jk wall on the process pool
  /// FockBuilder::build_jk wall on a one-thread ExecutionContext: the same
  /// thread count as the serial baseline.
  double mako_jk_serial_s = 0.0;
  double reference_jk_s = 0.0;  ///< ReferenceFockBuilder::build_jk wall
  /// The run's average iteration with mako_jk_s replaced by reference_jk_s.
  double seconds = 0.0;

  /// Baseline J/K over Mako J/K, both on one thread: the algorithmic
  /// speedup, free of the pool's thread parallelism.
  [[nodiscard]] double same_thread_jk_speedup() const {
    return reference_jk_s / mako_jk_serial_s;
  }
};

/// Times the J/K builds on `run`'s final density under its final policy and
/// swaps the baseline's for the pooled Mako one in `run`'s measured average
/// iteration.  `run` must come from run_scf over `basis` with `options` on
/// the process context.  Throws std::domain_error when `basis` exceeds
/// `max_l`.
[[nodiscard]] BaselineIteration baseline_iteration(
    const BasisSet& basis, const ScfOptions& options, const ScfResult& run,
    int max_l = ReferenceEriEngine::kMaxL);

}  // namespace mako
