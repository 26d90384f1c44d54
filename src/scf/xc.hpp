// Exchange-correlation functionals (closed-shell, spin-restricted forms):
// Slater exchange, VWN5 correlation, Becke-88 gradient exchange, LYP
// gradient correlation, and the B3LYP hybrid combination the paper's
// end-to-end evaluation uses.
//
// Energy densities are analytic; GGA potentials (v_rho, v_sigma) are
// obtained by high-order central differences of the energy density, which is
// exact to quadrature accuracy and verified by finite-difference property
// tests.
#pragma once

#include <string>

#include "basis/basis_set.hpp"
#include "linalg/matrix.hpp"
#include "scf/grid.hpp"

namespace mako {

class CancelToken;
class GemmBackend;

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

/// Numerically integrates the XC energy and potential matrix for density
/// matrix `d` (closed-shell convention) on `grid`.  This is the
/// triple-product-projection stage the paper notes is already MatMul-
/// amenable: AO values on point blocks contract with D through GEMMs on the
/// one GemmBackend (`backend` is its handle and selects nothing).
/// `cancel` (optional) is polled once per point chunk; on a trip the
/// quadrature stops early and the result is marked cancelled.
XcResult integrate_xc(const BasisSet& basis, const MolecularGrid& grid,
                      const XcFunctional& xc, const MatrixD& d,
                      const GemmBackend* backend = nullptr,
                      const CancelToken* cancel = nullptr);

/// Evaluates AO values (and optionally gradients) for a block of grid
/// points: ao is [npts x nbf]; gradients likewise when non-null.
void evaluate_aos(const BasisSet& basis, const GridPoint* pts,
                  std::size_t npts, MatrixD& ao, MatrixD* gx = nullptr,
                  MatrixD* gy = nullptr, MatrixD* gz = nullptr);

}  // namespace mako
