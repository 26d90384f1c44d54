// Batch-persistent ERI execution plans (CompilerMako's static planning,
// Section 3.3, realized as data).
//
// Every quartet of one ERI class follows the same static execution pattern:
// identical intermediate shapes, identical Hermite index algebra, identical
// spherical transforms.  An EriClassPlan bakes all of that class-static state
// once — the (-1)^{|q~|} sign table, the combined Hermite index table of
// Eq. 6, the cart->sph pair transforms — and is cached process-wide, so
// BatchedEriEngine::compute_batch does no per-batch table rebuilding.
//
// PairOperand is the per-shell-pair counterpart: the stacked, spherical
// E' operand every quartet of the pair multiplies by.  FockPlan owns one per
// significant pair; direct callers get them built into the scratch arena.
//
// EriScratch is the companion per-thread workspace arena: every working
// buffer of a batch execution lives here — the structure-of-arrays Stage 1
// inputs and r-integral chunk rows, the quartet-blocked r-integrals, one
// quartet's P and T, and quantized staging — and is reused across batches,
// which makes the
// steady-state hot path allocation-free (asserted by the allocation-count
// test).  The r-integral recursion program itself is per order, on
// HermiteBasis.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "basis/basis_set.hpp"
#include "integrals/hermite.hpp"
#include "kernelmako/eri_class.hpp"
#include "linalg/matrix.hpp"
#include "util/precision.hpp"

namespace mako {

/// Immutable per-class execution plan, shared across engines and threads.
class EriClassPlan {
 public:
  explicit EriClassPlan(const EriClassKey& key);

  /// Shorthand for EriPlanCache::process().get(key) — the process-wide cache.
  static const EriClassPlan& get(const EriClassKey& key);

  /// Number of distinct plans in the process-wide cache.
  static std::size_t cache_size();

  [[nodiscard]] const EriClassKey& key() const noexcept { return key_; }

  // Cached dimensions (all derivable from the key; cached to keep the hot
  // loop free of recomputation).
  int nhb = 0;   ///< Hermite components of the bra pair
  int nhk = 0;   ///< Hermite components of the ket pair
  int nht = 0;   ///< Hermite components of the total order
  int ncb = 0;   ///< Cartesian pair size, bra
  int nck = 0;   ///< Cartesian pair size, ket
  int nsb = 0;   ///< spherical pair size, bra
  int nsk = 0;   ///< spherical pair size, ket
  int ltot = 0;  ///< total angular momentum

  /// (-1)^{|q~|} per ket Hermite component (Eq. 6).
  std::vector<double> sign_cd;
  /// combined[hp * nhk + hq] = total-order Hermite index of p~+q~.
  std::vector<int> combined;

  /// Cart->sph pair transform of the bra, [nsb x ncb] (borrowed from the
  /// process-wide spherical cache; stable for the program lifetime).
  const MatrixD* sph_bra = nullptr;
  /// Cart->sph pair transform of the ket, [nsk x nck].
  const MatrixD* sph_ket = nullptr;

 private:
  EriClassKey key_;
};

/// Cache of EriClassPlan instances, keyed by ERI class.  Plans are built on
/// first lookup, never evicted (they are small and class-static), and handed
/// out by stable reference.  Thread-safe; lookups after first construction
/// are allocation-free.
///
/// ExecutionContext owns the cache used by a run (normally the process-wide
/// instance so plans are shared across engines); isolated instances
/// exist for tests that need cache-size determinism.
class EriPlanCache {
 public:
  EriPlanCache() = default;
  EriPlanCache(const EriPlanCache&) = delete;
  EriPlanCache& operator=(const EriPlanCache&) = delete;

  /// The process-wide cache (leaky singleton).
  static EriPlanCache& process();

  const EriClassPlan& get(const EriClassKey& key);
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<EriClassKey, std::unique_ptr<EriClassPlan>> plans_;
};

/// Stacked GEMM operand of one shell pair (a, b): its primitive pairs and
///
///   e[(jp*nh + h) * ns + s] = sum_c E_jp(h, c) * S(s, c),
///
/// with nh = nherm(la+lb), ns = nsph(la)*nsph(lb), E_jp the Hermite->
/// Cartesian matrix of primitive pair jp (build_e_matrix) and S the pair's
/// cart->sph transform.  Depends only on the pair, never on the quartet.
struct PairOperand {
  std::vector<PrimPair> prims;  ///< the K = nprim(a)*nprim(b) primitive pairs
  std::vector<double> e;        ///< [(K*nh) x ns], row-major
  double scale = 1.0;           ///< static quantization scale 1 / max|e|
  /// scale * e rounded through FP32 / TF32 / FP16 (quantized_slot), widened
  /// to float.  Empty unless the owner built that precision; see
  /// FockPlan::prepare_quantized.
  std::array<std::vector<float>, 3> q;
};

/// Index of a reduced precision in PairOperand::q (kFP64 has none).
constexpr std::size_t quantized_slot(Precision p) noexcept {
  return static_cast<std::size_t>(p) - 1;
}

/// Builds the stacked operand of pair (a, b) into `out`, reusing its storage
/// (allocation-free once warm).  `sph` is cart_to_sph_pair(a.l, b.l).
void build_pair_operand(const Shell& a, const Shell& b, const MatrixD& sph,
                        PairOperand& out);

/// Rounds op.scale * op.e through `p` into `dst` (op.e.size() floats) — the
/// quantized copy of a stacked operand.
void quantize_pair_operand(const PairOperand& op, Precision p, float* dst);

/// Reusable working-buffer arena for one thread's batch executions.  Buffers
/// grow to the high-water mark of the classes seen and are never shrunk;
/// after warm-up, compute_batch performs zero heap allocations.
struct EriScratch {
  /// Stacked operands built for quartets that arrive without them,
  /// [2 * nq]: bra of quartet q at 2q, ket at 2q + 1.
  std::vector<PairOperand> ops;
  /// Per-quartet quantized operands staged for this call (bra, then ket):
  /// operands with no owner-built copy and the fault-injection copy.
  /// Owner-built copies are never written.
  std::vector<float> q_ops;
  std::vector<float> q_dyn;  ///< quantized P, then T, of the current quartet
  /// Stage 1 inputs of the items (q, jp, kp), structure-of-arrays:
  /// [alpha | PQ_x | PQ_y | PQ_z | prefactor], nitem each.
  std::vector<double> r_items;
  /// compute_r_integrals_batch's chunk rows (packed (m, h) recursion
  /// storage).
  RIntegralWorkspace rint;
  /// r-integrals over the items, quartet-blocked [nitem x nht] as Stage 1
  /// writes them; the current quartet's P (FP64 route only) and T.
  std::vector<double> r_blocked, pq_one, t_one;
};

}  // namespace mako
