// Dense symmetric eigensolver and the orthogonalization helpers built on it.
//
// Fock-matrix diagonalization is one of the three DFT stages (Section 2.1);
// the paper delegates it to iterative MatMul-based eigensolvers on GPU.  Here
// it is one direct solver (Householder tridiagonalization followed by
// implicit-shift QL): diagonalization is <1% of an SCF iteration on the host,
// and the accelerator-shaped replacement is density purification, not a
// subspace iteration (DESIGN.md, "Resilience layer").
#pragma once

#include "linalg/matrix.hpp"

namespace mako {

/// Result of a symmetric eigendecomposition A = V diag(w) V^T.
struct EigenResult {
  VectorD eigenvalues;   ///< ascending
  MatrixD eigenvectors;  ///< column i is the eigenvector for eigenvalues[i]
  /// Whether every QL sweep converged within its iteration budget.  When
  /// false the eigenpairs are unusable and the SCF driver ends the run.
  bool converged = true;
};

/// Full eigendecomposition of a symmetric matrix (direct method).
/// Throws std::invalid_argument if `a` is not square; reports QL
/// non-convergence (e.g. overflow-scale input) as `converged = false`.
EigenResult eigh(const MatrixD& a);

/// Symmetric (Löwdin) inverse square root S^{-1/2}; eigenvalues below
/// `lindep_threshold` are dropped (canonical orthogonalization), so the
/// result may be rectangular n x n_kept.  Throws std::runtime_error if the
/// eigendecomposition does not converge.
MatrixD inverse_sqrt(const MatrixD& s, double lindep_threshold = 1e-9);

/// In-place Cholesky factorization A = L L^T (lower). Returns false if the
/// matrix is not positive definite.
bool cholesky(MatrixD& a);

/// Solves the symmetric linear system A x = b via Cholesky with diagonal
/// regularization fallback; used by DIIS.
VectorD solve_spd(MatrixD a, VectorD b);

/// Solves a general square linear system via partial-pivot LU; used by the
/// DIIS extrapolation (whose B matrix is symmetric indefinite).
VectorD solve_lu(MatrixD a, VectorD b);

}  // namespace mako
