// DFT integration grid tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "chem/builders.hpp"
#include "chem/elements.hpp"
#include "scf/grid.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(GaussLegendreTest, WeightsSumToTwo) {
  for (int n : {2, 4, 8, 12, 16, 32}) {
    std::vector<double> x, w;
    gauss_legendre(n, x, w);
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_NEAR(sum, 2.0, 1e-12) << n;
  }
}

TEST(GaussLegendreTest, ExactForPolynomials) {
  // n-point GL integrates degree <= 2n-1 exactly.
  std::vector<double> x, w;
  gauss_legendre(6, x, w);
  for (int deg : {0, 2, 4, 6, 8, 10}) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) acc += w[i] * std::pow(x[i], deg);
    const double exact = 2.0 / (deg + 1);  // int_{-1}^1 t^deg dt, even deg
    EXPECT_NEAR(acc, exact, 1e-12) << deg;
  }
}

TEST(GaussLegendreTest, NodesSymmetricAndSorted) {
  std::vector<double> x, w;
  gauss_legendre(10, x, w);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(x[i], -x[9 - i], 1e-13);
    if (i > 0) EXPECT_GT(x[i], x[i - 1]);
  }
}

double integrate_gaussian(const MolecularGrid& grid, const Vec3& center,
                          double alpha) {
  double acc = 0.0;
  for (const GridPoint& p : grid.points()) {
    const double r2 = distance(p.position, center) * distance(p.position, center);
    acc += p.weight * std::exp(-alpha * r2);
  }
  return acc;
}

TEST(GridTest, IntegratesSingleGaussianExactly) {
  Molecule atom;
  atom.add_atom(8, 0, 0, 0);
  const MolecularGrid grid(atom, GridSpec::standard());
  for (double alpha : {0.5, 1.0, 4.0}) {
    const double expect = std::pow(kPi / alpha, 1.5);
    EXPECT_NEAR(integrate_gaussian(grid, {0, 0, 0}, alpha), expect,
                1e-5 * expect)
        << alpha;
  }
}

TEST(GridTest, BeckeWeightsPartitionDiatomic) {
  // A Gaussian centered on each atom of a diatomic integrates correctly even
  // though the grid is partitioned between the two centers.
  Molecule m;
  m.add_atom(8, 0, 0, 0);
  m.add_atom(8, 0, 0, 2.2);
  const MolecularGrid grid(m, GridSpec::standard());
  const double expect = std::pow(kPi / 1.3, 1.5);
  EXPECT_NEAR(integrate_gaussian(grid, {0, 0, 0}, 1.3), expect, 2e-4 * expect);
  EXPECT_NEAR(integrate_gaussian(grid, {0, 0, 2.2}, 1.3), expect,
              2e-4 * expect);
}

TEST(GridTest, HeteronuclearSizeAdjustment) {
  // O-H: the size-adjusted Becke partition must still integrate a Gaussian
  // on the small atom (H) accurately.
  Molecule m;
  m.add_atom(8, 0, 0, 0);
  m.add_atom(1, 0, 0, 1.8);
  const MolecularGrid grid(m, GridSpec::standard());
  const double expect = std::pow(kPi / 2.0, 1.5);
  EXPECT_NEAR(integrate_gaussian(grid, {0, 0, 1.8}, 2.0), expect,
              5e-4 * expect);
}

TEST(GridTest, AllWeightsPositive) {
  const Molecule w = make_water();
  const MolecularGrid grid(w, GridSpec::coarse());
  EXPECT_GT(grid.size(), 1000u);
  for (const GridPoint& p : grid.points()) {
    EXPECT_GT(p.weight, 0.0);
  }
}

TEST(GridTest, FinerSpecGivesMorePoints) {
  const Molecule w = make_water();
  EXPECT_LT(MolecularGrid(w, GridSpec::coarse()).size(),
            MolecularGrid(w, GridSpec::standard()).size());
  EXPECT_LT(MolecularGrid(w, GridSpec::standard()).size(),
            MolecularGrid(w, GridSpec::fine()).size());
}

// The grid's points and weights, restated point by point as the Becke loop
// was first written: every pair term and distance recomputed inside the
// double loop, a fresh cell vector per point.  Point order is left to the
// grid's blocking, so both sides are compared as sorted bit patterns.
std::vector<GridPoint> restated_becke_points(const Molecule& mol,
                                             const GridSpec& spec) {
  const auto& atoms = mol.atoms();
  std::vector<double> cos_nodes, cos_weights;
  gauss_legendre(spec.theta_points, cos_nodes, cos_weights);
  std::vector<GridPoint> pts;
  for (std::size_t ai = 0; ai < atoms.size(); ++ai) {
    const double rb = bragg_radius_bohr(atoms[ai].z);
    for (int ir = 1; ir <= spec.radial_points; ++ir) {
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
          const Vec3 p{atoms[ai].position[0] + r * st * std::cos(phi),
                       atoms[ai].position[1] + r * st * std::sin(phi),
                       atoms[ai].position[2] + r * ct};
          const double w_ang = cos_weights[it] * 2.0 * kPi / spec.phi_points;
          std::vector<double> cell(atoms.size(), 1.0);
          for (std::size_t a = 0; a < atoms.size(); ++a) {
            for (std::size_t b = 0; b < atoms.size(); ++b) {
              if (a == b) continue;
              const double ra = distance(p, atoms[a].position);
              const double rbq = distance(p, atoms[b].position);
              const double rab = distance(atoms[a].position, atoms[b].position);
              double mu = (ra - rbq) / rab;
              const double chi = bragg_radius_bohr(atoms[a].z) /
                                 bragg_radius_bohr(atoms[b].z);
              const double uab = (chi - 1.0) / (chi + 1.0);
              double aab = uab / (uab * uab - 1.0);
              aab = std::clamp(aab, -0.5, 0.5);
              mu += aab * (1.0 - mu * mu);
              double s = mu;
              for (int i = 0; i < spec.becke_k; ++i) {
                s = 1.5 * s - 0.5 * s * s * s;
              }
              cell[a] *= 0.5 * (1.0 - s);
            }
          }
          double total = 0.0;
          for (double c : cell) total += c;
          const double becke_w = (total > 0.0) ? cell[ai] / total : 0.0;
          const double w = wr * w_ang * becke_w;
          if (w > 1e-16) pts.push_back(GridPoint{p, w});
        }
      }
    }
  }
  return pts;
}

void sort_by_bits(std::vector<GridPoint>& pts) {
  std::sort(pts.begin(), pts.end(), [](const GridPoint& x, const GridPoint& y) {
    return std::memcmp(&x, &y, sizeof(GridPoint)) < 0;
  });
}

TEST(GridTest, BeckeWeightsMatchThePerPointLoopBitForBit) {
  const Molecule w3 = make_water_cluster(3);
  const GridSpec spec = GridSpec::coarse();
  std::vector<GridPoint> got = MolecularGrid(w3, spec).points();
  std::vector<GridPoint> want = restated_becke_points(w3, spec);
  ASSERT_EQ(got.size(), want.size());
  sort_by_bits(got);
  sort_by_bits(want);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(GridPoint)),
            0);
}

TEST(GridTest, EmptyMoleculeEmptyGrid) {
  const MolecularGrid grid(Molecule{}, GridSpec::coarse());
  EXPECT_EQ(grid.size(), 0u);
}

}  // namespace
}  // namespace mako
