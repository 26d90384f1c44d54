// Persistent Fock assembly plan (CompilerMako's static analysis applied to
// the Fock build itself).
//
// Within one run the geometry never changes, so neither do the Schwarz
// bounds, the shell-pair list, the quartet class keys, or the batch
// partition.  Re-deriving all of that on every SCF iteration made the old
// `fock.screen` phase an O(ns^4) serial scan with per-iteration
// std::map/std::vector churn.  FockPlan bakes the iteration-invariant part
// once per basis:
//
//   * the symmetry-unique shell-pair list sorted descending by Schwarz
//     bound, which turns quartet enumeration output-sensitive: the sorted
//     ket scan exits as soon as q_ab * q_cd * dmax_upper drops below the
//     keep threshold, so negligible quartets are pruned in bulk without
//     ever being visited;
//   * per-pair shell pointers and symmetry self-weights, so routing emits
//     ready-to-batch QuartetRefs instead of re-deriving them per iteration;
//   * the pair-class algebra: every quartet's EriClassKey is a pure
//     function of its (bra pair class, ket pair class), precomputed as a
//     flat lookup table so the routing pass classifies in O(1) with no map;
//   * one stacked ERI operand per pair (PairOperand: primitive pairs plus
//     E'_AB with the spherical transform folded in), which routed quartets
//     point at, so KernelMako never rebuilds E per quartet or iteration.
//     Quantized copies are built once per precision on first use
//     (prepare_quantized).
//
// Only the density-dependent work — per-shell-pair density maxima and the
// FP64/quantized/pruned route of each surviving quartet — remains in the
// iteration loop (parallelized across the ExecutionContext pool by
// FockBuilder).
//
// Plans are cached on the ExecutionContext (FockPlanCache via
// ExecutionContext::components()), keyed by the basis' lifetime anchor, so
// every FockBuilder over the same basis — including the incremental-Fock
// rebuilds and gradient Fock builds of one run — shares one plan, and the
// plan is freed with its basis.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "basis/basis_set.hpp"
#include "kernelmako/class_plan.hpp"
#include "kernelmako/eri_class.hpp"
#include "linalg/matrix.hpp"

namespace mako {

class ThreadPool;

/// One symmetry-unique shell pair (i2 <= i1) of the sorted significant-pair
/// list.
struct FockShellPair {
  const Shell* s1 = nullptr;  ///< shell of the larger index (bra `a` role)
  const Shell* s2 = nullptr;  ///< shell of the smaller index (bra `b` role)
  std::uint32_t i1 = 0, i2 = 0;  ///< shell indices, i2 <= i1
  std::uint32_t klass = 0;       ///< pair-class id (index into the plan)
  float self_weight = 1.0f;      ///< 0.5 on diagonal pairs (i1 == i2)
  double q = 0.0;                ///< Schwarz bound of the pair
};

/// Immutable, iteration-invariant plan of one basis' Fock assembly.
/// Thread-safe to share by const reference; holds pointers into the
/// BasisSet's shell array, so it must not be used after the basis it was
/// built from dies.
class FockPlan {
 public:
  /// Fixed owner-slice count of the Fock partition.  The pair triangle is
  /// always split into this many area-balanced row slices — independent of
  /// the rank count AND the thread-pool width — and every J/K reduction
  /// folds the slice accumulators in the pinned pairwise tree order
  /// (pinned_tree_sum).  Rank r of N owns the contiguous slice block
  /// [r*S/N, (r+1)*S/N), a complete subtree, which is what makes
  /// `--ranks N` bit-identical to `--ranks 1` (see communicator.hpp; must
  /// equal kMaxCommRanks, static_asserted in fock.cpp).
  static constexpr std::size_t kOwnerSlices = 16;

  /// Builds the plan; the Schwarz-bound pass runs on `pool`.
  FockPlan(const BasisSet& basis, ThreadPool& pool);

  /// Shell-pair Schwarz bound matrix (num_shells x num_shells, symmetric).
  [[nodiscard]] const MatrixD& schwarz() const noexcept { return schwarz_; }

  /// Shell pairs sorted descending by Schwarz bound (ties broken by index
  /// for determinism).
  [[nodiscard]] const std::vector<FockShellPair>& pairs() const noexcept {
    return pairs_;
  }

  /// Stacked ERI operand of pairs()[i], oriented (s1, s2).
  [[nodiscard]] const PairOperand& operand(std::size_t i) const noexcept {
    return operands_[i];
  }

  /// Builds every pair operand's quantized copy at `p` (no-op for kFP64 and
  /// after the first call per precision).  Thread-safe; a caller must call
  /// it before dispatching quantized work at `p` over these operands, which
  /// is what makes reading PairOperand::q race-free.
  void prepare_quantized(Precision p) const;

  [[nodiscard]] std::size_t num_pair_classes() const noexcept { return npc_; }

  /// The distinct quartet classes of this basis, indexed by class slot.
  [[nodiscard]] const std::vector<EriClassKey>& quartet_classes()
      const noexcept {
    return classes_;
  }

  /// Class slot (index into quartet_classes()) of the quartet formed by a
  /// bra pair of class `bra_klass` and a ket pair of class `ket_klass`.
  [[nodiscard]] std::uint32_t class_slot(std::uint32_t bra_klass,
                                         std::uint32_t ket_klass)
      const noexcept {
    return slot_[bra_klass * npc_ + ket_klass];
  }

  /// Total symmetry-unique quartet count: npairs * (npairs + 1) / 2.
  [[nodiscard]] std::int64_t num_unique_quartets() const noexcept {
    const auto np = static_cast<std::int64_t>(pairs_.size());
    return np * (np + 1) / 2;
  }

  /// kOwnerSlices + 1 monotone row boundaries of the owner slices over the
  /// sorted pair triangle (slice s spans bra rows [rows[s], rows[s+1]));
  /// sqrt-balanced by quartet area.  Small bases may leave trailing slices
  /// empty — empty slices contribute exact zeros to the pinned fold.
  [[nodiscard]] const std::vector<std::size_t>& slice_rows() const noexcept {
    return slice_rows_;
  }

  /// Content fingerprint of a basis (FNV-1a over shells + geometry); part of
  /// the checkpoint fingerprint.
  static std::uint64_t fingerprint(const BasisSet& basis);

 private:
  MatrixD schwarz_;
  std::vector<FockShellPair> pairs_;
  std::size_t npc_ = 0;                ///< number of distinct pair classes
  std::vector<EriClassKey> classes_;   ///< distinct quartet classes
  std::vector<std::uint32_t> slot_;    ///< [npc_ x npc_] -> class slot
  std::vector<std::size_t> slice_rows_;  ///< kOwnerSlices+1 row boundaries
  /// Parallel to pairs_.  Mutable only for the quantized copies, written
  /// once per precision under quantized_once_.
  mutable std::vector<PairOperand> operands_;
  mutable std::array<std::once_flag, 3> quantized_once_;
};

/// Cache of FockPlans, anchored per ExecutionContext through
/// ExecutionContext::components().  A plan lives exactly as long as its
/// basis: the cache attaches it to the basis' BasisAnchor and itself keeps
/// only weak entries keyed by the anchor, so repeated FockBuilder
/// construction over a live basis hits, and a dead basis' plan is freed at
/// once even when the context lives on.  A new basis never hits an old
/// plan, even at a reused address: the entry's anchor has expired.
///
/// builds()/hits() are the CI-stable counters the plan-reuse ctest guard
/// asserts on (counter-based, not timing-based).
class FockPlanCache {
 public:
  FockPlanCache() = default;
  FockPlanCache(const FockPlanCache&) = delete;
  FockPlanCache& operator=(const FockPlanCache&) = delete;
  /// Detaches this cache's plans from the bases still alive.
  ~FockPlanCache();

  /// Returns the cached plan of `basis`, building (on `pool`) at most once
  /// per live basis.  Thread-safe.
  std::shared_ptr<const FockPlan> get(const BasisSet& basis, ThreadPool& pool);

  /// Number of plans held, one per live basis this cache served.
  [[nodiscard]] std::size_t size() const;
  /// Number of plan constructions performed by this cache.
  [[nodiscard]] std::int64_t builds() const;
  /// Number of lookups served without plan-construction work.
  [[nodiscard]] std::int64_t hits() const;

 private:
  struct Entry {
    std::weak_ptr<BasisAnchor> basis;
    std::weak_ptr<const FockPlan> plan;
  };

  /// The plan of the live basis owning `anchor`, or null.  Requires mutex_.
  std::shared_ptr<const FockPlan> find(const BasisAnchor* anchor) const;

  mutable std::mutex mutex_;
  std::map<const BasisAnchor*, Entry> plans_;
  std::int64_t builds_ = 0;
  std::int64_t hits_ = 0;
};

}  // namespace mako
