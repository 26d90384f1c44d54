// Rank communicator — the execution layer's collective seam.
//
// The paper's headline scaling run places one MPI rank per A100 across a
// 64-GPU cluster; this environment has no cluster, so the production code
// path is rank-sharded over in-process ranks.  One Communicator class does
// the collectives: they run with real semantics, checksum-verify every
// in-flight payload (retrying with backoff), and return the time the
// calibrated NVLink/HDR-IB cost model (ClusterModel) charges them.  On one
// rank every collective is the identity and costs nothing.  Everything
// above this header — FockBuilder's owner-computes partition, the SCF
// driver's guess broadcast and Fock allreduce, checkpointing's rank
// topology fingerprint — talks to `Communicator`.
//
// Determinism contract (the reason `mako --ranks N` is bit-identical to
// `--ranks 1` for every supported N):
//   * Work is partitioned into a FIXED number of owner slices
//     (kMaxCommRanks = 16), independent of both the rank count and the
//     thread-pool width.
//   * Rank r of N owns the contiguous slice block [r*16/N, (r+1)*16/N) — a
//     complete subtree of the pinned 16-leaf reduction tree.
//   * Every reduction — each rank's local fold of its own slices AND the
//     cross-rank allreduce — uses the same pairwise level-by-level
//     association (`pinned_tree_sum`), so the composed sum is the identical
//     16-leaf tree no matter where the communication boundary sits.  FP
//     addition is non-associative; pinning the association is what makes
//     the rank count (and the pool size) drop out of the bits.
// Consequently `ranks` must be a power of two in [1, kMaxCommRanks].
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "linalg/matrix.hpp"
#include "parallel/cluster_model.hpp"
#include "robust/status.hpp"

namespace mako {

/// Upper bound on in-process ranks; equals the fixed owner-slice count of
/// the Fock partition (fock_plan.hpp pins the same constant and fock.cpp
/// static_asserts they agree).
inline constexpr int kMaxCommRanks = 16;

/// Validates and resolves a requested rank count: 0 consults MAKO_RANKS and
/// defaults to 1.  Throws InputError (kInvalidInput) unless the result is a
/// power of two in [1, kMaxCommRanks].
[[nodiscard]] int resolve_ranks(int requested);

/// FNV-1a checksum over the raw bytes of a matrix payload (deterministic;
/// any bit flip — including a NaN overwrite — changes it).
[[nodiscard]] std::uint64_t payload_checksum(const MatrixD& m) noexcept;

/// THE canonical reduction order of every multi-buffer sum in the codebase:
/// folds parts[0..n) pairwise, level by level (s0+s1, s2+s3, ... then
/// (s0+s1)+(s2+s3), ...), leaving the total in *parts[0].  An odd trailing
/// element is carried to the next level unchanged.  FP addition is
/// non-associative, so rank-count-invariant results require every reduction
/// — a rank's local fold of its owner slices and the cross-rank allreduce —
/// to compose into this one fixed tree.
void pinned_tree_sum(MatrixD* const* parts, std::size_t n);

/// The same fold over scalars, leaving the total in parts[0].
void pinned_tree_sum(double* parts, std::size_t n);

/// Aggregate collective statistics of one communicator (monotonic).
struct CommStats {
  std::uint64_t allreduce_calls = 0;
  std::uint64_t broadcast_calls = 0;
  std::uint64_t barrier_calls = 0;
  std::uint64_t bytes = 0;    ///< logical payload bytes moved by collectives
  std::uint64_t retries = 0;  ///< verified-delivery resends
  std::uint64_t dropped = 0;  ///< payloads lost in flight (kDrop injections)
  double modeled_seconds = 0.0;
};

/// Communicator over `size()` in-process ranks exchanging MatrixD payloads.
/// Every rank's buffers live in this process; the driver consumes rank 0's.
/// Collectives return the modeled wall time the operation would take on
/// the default ClusterModel and carry verified-delivery semantics: a
/// payload whose checksum fails (fault-injection sites "simcomm.allreduce"
/// and "simcomm.broadcast" corrupt or drop it) is resent after exponential
/// backoff, up to 4 attempts; last_status() is kCommCorruption when every
/// attempt failed, and the caller must treat the operation's outputs as
/// unusable.  Thread-safe: one communicator is shared by every job view of
/// a batch.
class Communicator {
 public:
  /// `ranks` as resolve_ranks takes it: 0 resolves $MAKO_RANKS, then 1;
  /// anything but a power of two in [1, kMaxCommRanks] throws InputError.
  explicit Communicator(int ranks = 0);
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Element-wise sum of per-rank partials in the pinned pairwise tree
  /// order; every entry holds the reduced result afterwards (MPI_Allreduce
  /// semantics).  `rank_partials.size()` must equal size().  On an
  /// exhausted retry budget the partials are left untouched.  Returns the
  /// modeled collective seconds.
  double allreduce_sum(std::vector<MatrixD>& rank_partials);

  /// Delivers rank 0's `payload` to every rank.  In-process ranks share the
  /// canonical buffer, so `payload` is unchanged; the call verifies one
  /// delivered copy per attempt and charges the modeled time.
  double broadcast(MatrixD& payload);

  /// Synchronization point; charges the modeled latency of an empty
  /// collective.
  double barrier();

  [[nodiscard]] CommStats stats() const;
  /// Health of the most recent collective (kCommCorruption after an
  /// exhausted retry budget).
  [[nodiscard]] Status last_status() const;

 private:
  /// One delivery attempt of `payload` at `site`: applies an injected
  /// corruption or drop, verifies the checksum and, on failure, charges the
  /// backoff before the resend to `time_s`.  Requires mutex_.
  bool deliver_verified(const char* site, MatrixD& payload, int attempt,
                        double& time_s);

  int size_;
  ClusterModel cluster_;
  mutable std::mutex mutex_;
  CommStats stats_;
  Status last_status_;
  /// Per-attempt staging reused across calls: the allreduce's reduction
  /// tree and the broadcast's in-flight copy, so inputs stay untouched when
  /// delivery fails.
  std::vector<MatrixD> tree_;
  MatrixD in_flight_;
};

}  // namespace mako
