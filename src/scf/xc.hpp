// Exchange-correlation functionals (closed-shell, spin-restricted forms):
// Slater exchange, VWN5 correlation, Becke-88 gradient exchange, LYP
// gradient correlation, and the B3LYP hybrid combination the paper's
// end-to-end evaluation uses.
//
// Each energy density is written once over a forward-mode dual number, so
// the potentials v_rho and v_sigma are its exact partial derivatives
// (checked against central differences by the tests).
#pragma once

#include <string>

#include "basis/basis_set.hpp"
#include "linalg/matrix.hpp"
#include "scf/grid.hpp"

namespace mako {

class CancelToken;
class GemmBackend;
class ThreadPool;

/// Pointwise functional evaluation result (per unit volume).
struct XcPoint {
  double exc = 0.0;     ///< energy density f(rho, sigma)
  double vrho = 0.0;    ///< df/drho
  double vsigma = 0.0;  ///< df/dsigma, sigma = |grad rho|^2
};

/// Supported functionals.
enum class XcKind {
  kNone,    ///< pure Hartree-Fock (no XC term, 100% exact exchange)
  kLDA,     ///< Slater + VWN5
  kBLYP,    ///< B88 + LYP (pure GGA)
  kB3LYP,   ///< 0.20 HF + 0.08 Slater + 0.72 B88 ; 0.19 VWN + 0.81 LYP
};

class XcFunctional {
 public:
  explicit XcFunctional(XcKind kind = XcKind::kNone) : kind_(kind) {}
  static XcFunctional from_name(const std::string& name);

  [[nodiscard]] XcKind kind() const noexcept { return kind_; }
  [[nodiscard]] const char* name() const noexcept;

  /// Fraction of exact (HF) exchange in the hybrid.
  [[nodiscard]] double exact_exchange() const noexcept;
  [[nodiscard]] bool needs_gradient() const noexcept;
  [[nodiscard]] bool is_hf_only() const noexcept {
    return kind_ == XcKind::kNone;
  }

  /// Evaluates f and derivatives at (rho, sigma); rho in electrons/bohr^3.
  [[nodiscard]] XcPoint eval(double rho, double sigma) const;

 private:
  XcKind kind_;
};

/// Result of the XC quadrature.
struct XcResult {
  double energy = 0.0;
  double n_electrons = 0.0;  ///< integrated density (grid quality check)
  MatrixD vxc;               ///< XC potential matrix in the AO basis
  /// True when `cancel` tripped mid-quadrature; energy/vxc are then partial
  /// and must be discarded by the caller.
  bool cancelled = false;
};

/// AO screening threshold of integrate_xc: a chunk leaves out a shell when
/// neither its value nor any gradient component can reach this magnitude
/// anywhere in the chunk's bounding box.
inline constexpr double kXcAoCutoff = 1e-12;

/// Distance from the center of `sh` beyond which its AOs and every
/// component of their gradients stay below kXcAoCutoff.
double xc_screening_radius(const Shell& sh);

/// Numerically integrates the XC energy and potential matrix for density
/// matrix `d` (closed-shell convention) on `grid`.  This is the
/// triple-product-projection stage the paper notes is already MatMul-
/// amenable: per chunk (one MolecularGrid::kBlock block of points), AO
/// values contract with D and the potential weights through two GEMMs.
///
/// Each chunk keeps only the shells whose value or gradient can exceed
/// kXcAoCutoff somewhere in its bounding box, and its GEMMs run on those
/// AOs alone.  The chunks map to 16 fixed owner slices run on `pool`;
/// the slices fold in the pinned 16-leaf order (pinned_tree_sum), so Vxc,
/// the energy and the density integral are bit-identical on pools of any
/// size.  `cancel` (optional) is polled once per chunk; on a trip the
/// quadrature stops early and the result is marked cancelled.
XcResult integrate_xc(const BasisSet& basis, const MolecularGrid& grid,
                      const XcFunctional& xc, const MatrixD& d,
                      ThreadPool& pool, const CancelToken* cancel = nullptr);

/// The same quadrature on one thread; `backend` is not read.  It keeps the
/// signature perfbench's XC probe compiles against, and goes once that
/// probe passes a pool.
XcResult integrate_xc(const BasisSet& basis, const MolecularGrid& grid,
                      const XcFunctional& xc, const MatrixD& d,
                      const GemmBackend* backend);

/// Evaluates AO values (and optionally gradients) for a block of grid
/// points: ao is [npts x nbf]; gradients likewise when non-null.
void evaluate_aos(const BasisSet& basis, const GridPoint* pts,
                  std::size_t npts, MatrixD& ao, MatrixD* gx = nullptr,
                  MatrixD* gy = nullptr, MatrixD* gz = nullptr);

}  // namespace mako
