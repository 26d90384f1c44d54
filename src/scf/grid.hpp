// Molecular integration grid for the exchange-correlation quadrature:
// Becke-partitioned atomic grids with an Euler-Maclaurin radial scheme and a
// Gauss-Legendre x uniform-phi angular product rule (exact for spherical
// harmonics up to 2*n_theta - 1).
#pragma once

#include <vector>

#include "chem/molecule.hpp"

namespace mako {

struct GridPoint {
  Vec3 position{};
  double weight = 0.0;
};

/// Grid quality presets.
struct GridSpec {
  int radial_points = 35;
  int theta_points = 12;  ///< Gauss-Legendre nodes in cos(theta)
  int phi_points = 24;    ///< uniform azimuthal points
  int becke_k = 3;        ///< Becke smoothing iterations

  static GridSpec coarse() { return {20, 8, 16, 3}; }
  static GridSpec standard() { return {35, 12, 24, 3}; }
  static GridSpec fine() { return {50, 16, 32, 3}; }
};

/// Becke-partitioned molecular grid.
class MolecularGrid {
 public:
  /// Points come in blocks of kBlock: each run of kBlock consecutive
  /// points (the last may be shorter) fills a compact box, so the XC
  /// quadrature's per-block shell screening has something to drop.
  static constexpr std::size_t kBlock = 128;

  MolecularGrid(const Molecule& mol, GridSpec spec = GridSpec::standard());

  [[nodiscard]] const std::vector<GridPoint>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

 private:
  std::vector<GridPoint> points_;
};

/// Gauss-Legendre nodes/weights on [-1, 1] (used by the angular rule and
/// exposed for tests).
void gauss_legendre(int n, std::vector<double>& nodes,
                    std::vector<double>& weights);

}  // namespace mako
