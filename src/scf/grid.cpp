#include "scf/grid.hpp"

#include <algorithm>
#include <cmath>

#include "chem/elements.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Becke's smoothing polynomial p(mu) iterated k times.
double becke_smooth(double mu, int k) {
  for (int i = 0; i < k; ++i) {
    mu = 1.5 * mu - 0.5 * mu * mu * mu;
  }
  return mu;
}

/// Orders pts[lo, hi) so that every run of `block` points starting at lo
/// is a compact box: the range splits along its bounding box's longest axis
/// at a multiple of `block` near the middle, and each side recurses.
void order_blocks(std::vector<GridPoint>& pts, std::size_t lo, std::size_t hi,
                  std::size_t block) {
  const std::size_t n = hi - lo;
  if (n <= block) return;
  Vec3 mn = pts[lo].position, mx = pts[lo].position;
  for (std::size_t p = lo + 1; p < hi; ++p) {
    for (int k = 0; k < 3; ++k) {
      mn[k] = std::min(mn[k], pts[p].position[k]);
      mx[k] = std::max(mx[k], pts[p].position[k]);
    }
  }
  int axis = 0;
  for (int k = 1; k < 3; ++k) {
    if (mx[k] - mn[k] > mx[axis] - mn[axis]) axis = k;
  }
  const std::size_t mid = lo + (n + block - 1) / block / 2 * block;
  std::nth_element(pts.begin() + static_cast<std::ptrdiff_t>(lo),
                   pts.begin() + static_cast<std::ptrdiff_t>(mid),
                   pts.begin() + static_cast<std::ptrdiff_t>(hi),
                   [axis](const GridPoint& a, const GridPoint& b) {
                     return a.position[axis] < b.position[axis];
                   });
  order_blocks(pts, lo, mid, block);
  order_blocks(pts, mid, hi, block);
}

}  // namespace

void gauss_legendre(int n, std::vector<double>& nodes,
                    std::vector<double>& weights) {
  nodes.resize(n);
  weights.resize(n);
  const int m = (n + 1) / 2;
  for (int i = 0; i < m; ++i) {
    // Newton iteration from the Chebyshev estimate.
    double x = std::cos(kPi * (i + 0.75) / (n + 0.5));
    double pp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      double p0 = 1.0, p1 = 0.0;
      for (int jj = 0; jj < n; ++jj) {
        const double p2 = p1;
        p1 = p0;
        p0 = ((2.0 * jj + 1.0) * x * p1 - jj * p2) / (jj + 1.0);
      }
      pp = n * (x * p0 - p1) / (x * x - 1.0);
      const double dx = p0 / pp;
      x -= dx;
      if (std::fabs(dx) < 1e-15) break;
    }
    nodes[i] = -x;
    nodes[n - 1 - i] = x;
    weights[i] = 2.0 / ((1.0 - x * x) * pp * pp);
    weights[n - 1 - i] = weights[i];
  }
}

MolecularGrid::MolecularGrid(const Molecule& mol, GridSpec spec) {
  const auto& atoms = mol.atoms();
  if (atoms.empty()) return;

  std::vector<double> cos_nodes, cos_weights;
  gauss_legendre(spec.theta_points, cos_nodes, cos_weights);

  for (std::size_t ai = 0; ai < atoms.size(); ++ai) {
    const Atom& atom = atoms[ai];
    const double rb = bragg_radius_bohr(atom.z);

    for (int ir = 1; ir <= spec.radial_points; ++ir) {
      // Euler-Maclaurin (Murray-Handy-Laming) radial map:
      //   r = R * (i / (n+1-i))^2,  w_r dr = 2 R^3 (n+1) i^5 / (n+1-i)^7.
      const double np1 = spec.radial_points + 1.0;
      const double q = static_cast<double>(ir);
      const double r = rb * (q / (np1 - q)) * (q / (np1 - q));
      const double wr = 2.0 * rb * rb * rb * np1 * std::pow(q, 5) /
                        std::pow(np1 - q, 7);

      for (int it = 0; it < spec.theta_points; ++it) {
        const double ct = cos_nodes[it];
        const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
        for (int ip = 0; ip < spec.phi_points; ++ip) {
          const double phi = 2.0 * kPi * ip / spec.phi_points;
          const Vec3 p{atom.position[0] + r * st * std::cos(phi),
                       atom.position[1] + r * st * std::sin(phi),
                       atom.position[2] + r * ct};
          // Angular weight: GL weight * (2 pi / n_phi); total solid angle
          // integrates to 4 pi.
          const double w_ang = cos_weights[it] * 2.0 * kPi / spec.phi_points;

          // Becke partition weight of this point w.r.t. atom ai.
          double becke_w = 1.0;
          if (atoms.size() > 1) {
            std::vector<double> cell(atoms.size(), 1.0);
            for (std::size_t a = 0; a < atoms.size(); ++a) {
              for (std::size_t b = 0; b < atoms.size(); ++b) {
                if (a == b) continue;
                const double ra = distance(p, atoms[a].position);
                const double rbq = distance(p, atoms[b].position);
                const double rab =
                    distance(atoms[a].position, atoms[b].position);
                double mu = (ra - rbq) / rab;
                // Atomic-size adjustment (Becke Appendix A).
                const double chi = bragg_radius_bohr(atoms[a].z) /
                                   bragg_radius_bohr(atoms[b].z);
                const double uab = (chi - 1.0) / (chi + 1.0);
                double aab = uab / (uab * uab - 1.0);
                aab = std::clamp(aab, -0.5, 0.5);
                mu += aab * (1.0 - mu * mu);
                cell[a] *= 0.5 * (1.0 - becke_smooth(mu, spec.becke_k));
              }
            }
            double total = 0.0;
            for (double c : cell) total += c;
            becke_w = (total > 0.0) ? cell[ai] / total : 0.0;
          }

          const double w = wr * w_ang * becke_w;
          if (w > 1e-16) {
            points_.push_back(GridPoint{p, w});
          }
        }
      }
    }
  }
  order_blocks(points_, 0, points_.size(), kBlock);
}

}  // namespace mako
