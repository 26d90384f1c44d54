// Cartesian -> real solid-harmonic (spherical) transformation matrices.
//
// Shells carry 2l+1 spherical components (the paper's Section 2.1); ERI
// pipelines evaluate Cartesian intermediates and transform at the end.  The
// coefficients are generated for arbitrary l from the real solid-harmonic
// recursion relations rather than hardcoded tables, then normalized so that a
// spherical Gaussian built from contraction-normalized primitives has unit
// self-overlap (verified by the overlap-diagonal test).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace mako {

/// Number of Cartesian components of angular momentum l: (l+1)(l+2)/2.
constexpr int ncart(int l) noexcept { return (l + 1) * (l + 2) / 2; }

/// Number of spherical components: 2l+1.
constexpr int nsph(int l) noexcept { return 2 * l + 1; }

/// Index of the Cartesian component (lx, ly, lz) within the canonical CCA
/// ordering (lx descending, then ly descending).
int cart_index(int l, int lx, int ly, int lz) noexcept;

/// The (lx, ly, lz) triple at `index` in the canonical ordering.
void cart_components(int l, int index, int& lx, int& ly, int& lz) noexcept;

/// Highest shell l the basis data builds (g, in def2-qzvp and cc-pvqz);
/// cart_to_sph_pair is tabulated through it.  The pair tables grow as the
/// square of sum_l nsph(l)*ncart(l), so stopping at g keeps them ~0.5 MB.
inline constexpr int kMaxBasisL = 4;

/// Highest l cart_to_sph tabulates (i shells); it also bounds the monomial
/// powers evaluate_aos keeps on the stack.
inline constexpr int kMaxSphL = 6;

/// Transformation matrix C of shape [nsph(l) x ncart(l)]: a spherical
/// component is C(m_row, :) dotted with the Cartesian components.  Row order
/// is m = -l ... +l.  Every l in [0, kMaxSphL] is built on the first call of
/// either function and never changes, so concurrent callers take no lock
/// and always get the same address.  Throws std::out_of_range beyond it.
const MatrixD& cart_to_sph(int l);

/// Pair transformation matrix kron(C_la, C_lb) of shape
/// [nsph(la)*nsph(lb) x ncart(la)*ncart(lb)], used to spherical-transform a
/// bra or ket index pair of an ERI quartet in one GEMM.  Tabulated with
/// cart_to_sph for la, lb in [0, kMaxBasisL]; throws std::out_of_range
/// beyond it.
const MatrixD& cart_to_sph_pair(int la, int lb);

/// Double factorial (2k-1)!! with (-1)!! == 1.
double double_factorial(int n) noexcept;

}  // namespace mako
