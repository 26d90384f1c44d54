// Crash-consistent SCF checkpoints.
//
// A killed process must not lose hours of SCF iterations.  `ScfState` holds
// every loop-carried datum of the SCF driver — density, Fock, DIIS history,
// recovery-ladder and soft-detector state, incremental-Fock accumulators,
// precision-governor latches — and run_scf reads and writes it directly.
// The checkpoint is that struct serialized: a capture is one copy of the
// state at the end of a completed iteration, a restore is one load.  A
// restored run therefore continues *bit-identically*: the resumed trajectory
// (per-iteration energies, quartet routing counts, recovery log) is exactly
// the trajectory the uninterrupted run would have produced.  That property is
// what makes resume trustworthy, and it is enforced by ctest.
//
// File format (version 2, little-endian host layout):
//
//   [magic "MAKOCKPT"] [u32 format version] [u64 content fingerprint]
//   [u32 section count]
//   section*: [u32 fourcc tag] [u64 payload bytes] [u32 CRC32(payload)]
//             [payload bytes]
//
// One field list in checkpoint.cpp (`visit`) names each ScfState field once,
// with its section and position; save and load both walk it, so the writer
// and the reader cannot drift apart.  The reader skips sections it does not
// know: files from builds that still wrote the retired opaque RNG section
// ("RNGS") load unchanged.
//
// The fingerprint (computed by run_scf) hashes the molecule, basis, backend
// name, rank count, XC functional, XC grid, ERI engine and every
// trajectory-shaping option; restoring against a different problem is an
// InputError, never a silent restart-from-garbage.  Every section carries its
// own CRC32 and the reader validates all of them eagerly — a single flipped
// byte anywhere is detected and reported with the offending section.  Every
// size and count field is checked against the bytes that remain before
// anything is allocated, so a corrupt-but-CRC-consistent file is also an
// InputError, never a multi-terabyte allocation.
//
// Writes are atomic: serialize to `<path>.tmp.<pid>.<seq>` (the sequence
// number makes the staging name unique per write, so concurrent batch jobs
// checkpointing into one directory never collide), fsync the file, rename
// over the target, fsync the directory.  A crash mid-write leaves either the
// previous checkpoint or a stray .tmp — never a torn file at `path`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "robust/status.hpp"

namespace mako {

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) of a byte range.  Exposed for
/// tests that deliberately corrupt checkpoints.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0) noexcept;

/// Every loop-carried datum of the SCF driver.  run_scf keeps its loop state
/// here and nowhere else; this layer only (de)serializes it.
struct ScfState {
  // --- identity ----------------------------------------------------------
  std::uint64_t fingerprint = 0;  ///< molecule/basis/options content hash

  // --- iteration cursor and convergence state ----------------------------
  std::int32_t next_iteration = 0;  ///< first iteration still to run
  double last_energy = 0.0;         ///< energy of the last completed iteration
  double last_error = 1.0;          ///< DIIS error entering next_iteration
  bool converged = false;           ///< run already met its thresholds

  // --- best-so-far result snapshot ---------------------------------------
  double energy = 0.0;
  double e_nuclear = 0.0;
  double e_one_electron = 0.0;
  double e_coulomb = 0.0;
  double e_exact_exchange = 0.0;
  double e_xc = 0.0;
  MatrixD density;
  MatrixD fock;
  MatrixD coefficients;
  VectorD orbital_energies;

  // --- PrecisionGovernor state (its GovernorState, copied at capture) ----
  std::int32_t governor_ladder_stage = 0;  ///< TF32 step of the ladder taken
  std::uint8_t fp64_latched = 0;           ///< recovery rung 3 fired
  std::uint8_t force_exact = 0;            ///< final FP64 polish pending

  // --- recovery ladder (rung 3 lives in the governor) --------------------
  std::int32_t ladder_rung = 0;
  bool damping = false;       ///< rung 2 active
  bool direct_diag = false;   ///< rung 4 latched
  bool full_rebuild = false;  ///< rung 5 latched
  /// Soft detectors stay quiet until this iteration, giving each escalation
  /// a window to take effect before the next one is considered.
  std::int32_t cooldown_until = 0;

  // --- soft-detector state -----------------------------------------------
  std::int32_t rise_streak = 0;  ///< consecutive energy rises
  VectorD err_hist;              ///< DIIS error of every iteration
  MatrixD prev_y_occ;  ///< occupied ortho block for the rung-2 level shift

  // --- incremental-Fock accumulators -------------------------------------
  MatrixD d_prev, j_prev, k_prev;

  // --- DIIS history (parallel (F, error) pairs, oldest first) ------------
  std::vector<MatrixD> diis_focks;
  std::vector<MatrixD> diis_errors;

  // --- recovery log so a resumed run reports the full story --------------
  std::vector<RecoveryEvent> recovery_log;
};

/// Serializes `state` atomically to `path` (temp file + fsync + rename).
/// Returns a fault Status (kCheckpointError) on any I/O failure; never
/// throws — checkpointing must not take down a healthy run.
[[nodiscard]] Status save_checkpoint(const std::string& path,
                                     const ScfState& state);

/// Loads and validates a checkpoint.  Throws InputError
/// (FaultKind::kCheckpointCorrupt) on bad magic, unknown version, truncation,
/// any section CRC mismatch, or any size or count field larger than the
/// payload that holds it; and (FaultKind::kCheckpointMismatch) when
/// `expected_fingerprint` is nonzero and does not match the file — the
/// caller must never silently continue from a checkpoint of a different
/// molecule/basis/options.
[[nodiscard]] ScfState load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint = 0);

}  // namespace mako
