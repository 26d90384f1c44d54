// Reference per-quartet ERI engine — the irregular baseline.
//
// This plays the role of the classical GPU implementations Mako is compared
// against (LibintX / QUICK / GPU4PySCF kernels): each shell quartet is
// evaluated independently with recursive MMD intermediates and scalar
// transformation loops, the execution pattern Section 2.4.1 describes as
// fundamentally misaligned with matrix hardware.  It is also the correctness
// oracle every Mako kernel is validated against, and the engine of the
// per-quartet Fock baseline the benches time (bench/reference_fock.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "basis/basis_set.hpp"

namespace mako {

/// Per-quartet reference engine.
class ReferenceEriEngine {
 public:
  /// Highest shell angular momentum this build tabulates (i functions).
  static constexpr int kMaxL = 6;

  /// Computes the spherical quartet (ab|cd) into `out`, row-major
  /// [na][nb][nc][nd] with n* = 2l*+1.  Throws std::domain_error when any
  /// shell exceeds kMaxL.
  void compute(const Shell& a, const Shell& b, const Shell& c, const Shell& d,
               std::vector<double>& out) const;

  /// Cartesian variant (pre-spherical-transform), used by unit tests.
  void compute_cartesian(const Shell& a, const Shell& b, const Shell& c,
                         const Shell& d, std::vector<double>& out) const;

  /// Number of double-precision FLOPs the engine executes for one quartet of
  /// this class (used by the scaling cost model).
  static double quartet_flop_estimate(int la, int lb, int lc, int ld,
                                      int kab, int kcd);
};

/// Transforms a Cartesian quartet tensor [ncart_ab x ncart_cd] to the
/// spherical basis [nsph_ab x nsph_cd] (shared by both engines).
void quartet_cart_to_sph(int la, int lb, int lc, int ld,
                         const std::vector<double>& cart,
                         std::vector<double>& sph);

}  // namespace mako
