// One-electron integrals over the spherical AO basis: overlap, kinetic
// energy and nuclear attraction.  Built on the MMD machinery.
#pragma once

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace mako {

/// Overlap matrix S (nbf x nbf, symmetric, unit diagonal by construction).
MatrixD overlap_matrix(const BasisSet& basis);

/// Kinetic-energy matrix T.
MatrixD kinetic_matrix(const BasisSet& basis);

/// Nuclear-attraction matrix V (negative definite for neutral systems).
MatrixD nuclear_attraction_matrix(const BasisSet& basis, const Molecule& mol);

/// Core Hamiltonian H = T + V.
MatrixD core_hamiltonian(const BasisSet& basis, const Molecule& mol);

}  // namespace mako
