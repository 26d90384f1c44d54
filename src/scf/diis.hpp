// DIIS (Pulay) convergence acceleration for the SCF procedure.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace mako {

/// Classic commutator-DIIS: extrapolates the Fock matrix from the history of
/// (F, error) pairs with error = FDS - SDF expressed in an orthonormal basis.
/// The caller owns the history (two parallel vectors, oldest first), so the
/// SCF driver keeps it in its ScfState and a checkpoint carries it verbatim.
///
/// Appends (fock, error), trims the history to its newest `max_vectors`
/// pairs (also when it was loaded longer than that), and returns the
/// extrapolated Fock matrix.  Returns the raw Fock while fewer than 2 pairs
/// are stored, and when the error overlaps are singular (the oldest pair is
/// then dropped).
MatrixD diis_extrapolate(std::vector<MatrixD>& focks,
                         std::vector<MatrixD>& errors, const MatrixD& fock,
                         const MatrixD& error, std::size_t max_vectors = 8);

/// Max-abs element of a DIIS error matrix: the SCF convergence metric.
[[nodiscard]] double diis_error_norm(const MatrixD& error);

/// Builds the DIIS error matrix  X^T (F D S - S D F) X  (X orthogonalizer).
MatrixD diis_error_matrix(const MatrixD& f, const MatrixD& d, const MatrixD& s,
                          const MatrixD& x);

}  // namespace mako
