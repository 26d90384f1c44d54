// Closed-form s-shell integrals.  For contracted s shells the overlap,
// kinetic, nuclear-attraction and electron-repulsion integrals are products
// of Gaussian prefactors and F0(x) = sqrt(pi/x) erf(sqrt(x)) / 2, so the
// formulas below share no code with the MMD/Hermite machinery or the
// library's Boys tables.  They pin one-electron integrals, KernelMako and
// the Fock plan's Schwarz bounds to 1e-12 relative on s-only bases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "integrals/one_electron.hpp"
#include "kernelmako/batched_eri.hpp"
#include "scf/fock.hpp"

namespace mako {
namespace {

constexpr double kPi = std::numbers::pi;

// F0 by its own series near zero and erf elsewhere.
double boys_f0(double x) {
  if (x < 1e-3) {
    return 1.0 - x / 3.0 + x * x / 10.0 - x * x * x / 42.0 +
           x * x * x * x / 216.0;
  }
  const double r = std::sqrt(x);
  return 0.5 * std::sqrt(kPi) / r * std::erf(r);
}

double dist2(const Vec3& a, const Vec3& b) {
  const double d = distance(a, b);
  return d * d;
}

Vec3 weighted_center(double a, const Vec3& pa, double b, const Vec3& pb) {
  const double p = a + b;
  return {(a * pa[0] + b * pb[0]) / p, (a * pa[1] + b * pb[1]) / p,
          (a * pa[2] + b * pb[2]) / p};
}

// Calls f(weight, p, mu, P) for every primitive pair of two s shells, where
// weight = c_i c_j and P is the Gaussian product centre.
template <class F>
void for_each_primitive_pair(const Shell& a, const Shell& b, F&& f) {
  for (int i = 0; i < a.nprim(); ++i) {
    for (int j = 0; j < b.nprim(); ++j) {
      const double ea = a.exponents[i];
      const double eb = b.exponents[j];
      const double p = ea + eb;
      f(a.coefficients[i] * b.coefficients[j], p, ea * eb / p,
        weighted_center(ea, a.center, eb, b.center));
    }
  }
}

double overlap_ss(const Shell& a, const Shell& b) {
  const double r2 = dist2(a.center, b.center);
  double s = 0.0;
  for_each_primitive_pair(a, b, [&](double w, double p, double mu, const Vec3&) {
    s += w * std::pow(kPi / p, 1.5) * std::exp(-mu * r2);
  });
  return s;
}

double kinetic_ss(const Shell& a, const Shell& b) {
  const double r2 = dist2(a.center, b.center);
  double t = 0.0;
  for_each_primitive_pair(a, b, [&](double w, double p, double mu, const Vec3&) {
    t += w * mu * (3.0 - 2.0 * mu * r2) * std::pow(kPi / p, 1.5) *
         std::exp(-mu * r2);
  });
  return t;
}

double nuclear_ss(const Shell& a, const Shell& b, const Molecule& mol) {
  const double r2 = dist2(a.center, b.center);
  double v = 0.0;
  for_each_primitive_pair(a, b, [&](double w, double p, double mu,
                                    const Vec3& pc) {
    for (const Atom& atom : mol.atoms()) {
      v -= w * atom.z * 2.0 * kPi / p * std::exp(-mu * r2) *
           boys_f0(p * dist2(pc, atom.position));
    }
  });
  return v;
}

double eri_ssss(const Shell& a, const Shell& b, const Shell& c,
                const Shell& d) {
  const double rab2 = dist2(a.center, b.center);
  const double rcd2 = dist2(c.center, d.center);
  double v = 0.0;
  for_each_primitive_pair(a, b, [&](double wab, double p, double mab,
                                    const Vec3& pc) {
    for_each_primitive_pair(c, d, [&](double wcd, double q, double mcd,
                                      const Vec3& qc) {
      v += wab * wcd * 2.0 * std::pow(kPi, 2.5) /
           (p * q * std::sqrt(p + q)) * std::exp(-mab * rab2 - mcd * rcd2) *
           boys_f0(p * q / (p + q) * dist2(pc, qc));
    });
  });
  return v;
}

// Four hydrogens off any symmetry plane, spread from bonded to far apart.
Molecule h4_chain() {
  Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);
  m.add_atom(1, 1.37, 0.21, -0.08);
  m.add_atom(1, 2.9, -1.6, 0.55);
  m.add_atom(1, -0.4, 3.8, 2.2);
  return m;
}

double rel_tol(double ref) { return 1e-12 * std::max(std::fabs(ref), 1e-2); }

TEST(ClosedFormTest, OverlapOfSShellsMatchesGaussianProduct) {
  const Molecule mol = h4_chain();
  const BasisSet bs(mol, "6-31g");
  const MatrixD s = overlap_matrix(bs);
  const auto& sh = bs.shells();
  for (std::size_t i = 0; i < sh.size(); ++i) {
    for (std::size_t j = 0; j < sh.size(); ++j) {
      const double ref = overlap_ss(sh[i], sh[j]);
      EXPECT_NEAR(s(i, j), ref, rel_tol(ref)) << i << "," << j;
    }
  }
}

TEST(ClosedFormTest, KineticOfSShellsMatchesGaussianProduct) {
  const Molecule mol = h4_chain();
  const BasisSet bs(mol, "6-31g");
  const MatrixD t = kinetic_matrix(bs);
  const auto& sh = bs.shells();
  for (std::size_t i = 0; i < sh.size(); ++i) {
    for (std::size_t j = 0; j < sh.size(); ++j) {
      const double ref = kinetic_ss(sh[i], sh[j]);
      EXPECT_NEAR(t(i, j), ref, rel_tol(ref)) << i << "," << j;
    }
  }
}

TEST(ClosedFormTest, NuclearAttractionOfSShellsMatchesBoysF0) {
  const Molecule mol = h4_chain();
  const BasisSet bs(mol, "6-31g");
  const MatrixD v = nuclear_attraction_matrix(bs, mol);
  const auto& sh = bs.shells();
  for (std::size_t i = 0; i < sh.size(); ++i) {
    for (std::size_t j = 0; j < sh.size(); ++j) {
      const double ref = nuclear_ss(sh[i], sh[j], mol);
      EXPECT_NEAR(v(i, j), ref, rel_tol(ref)) << i << "," << j;
    }
  }
}

TEST(ClosedFormTest, KernelMakoSsssQuartetsMatchBoysF0) {
  const Molecule mol = h4_chain();
  const BasisSet bs(mol, "6-31g");
  const auto& sh = bs.shells();
  const BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  std::size_t checked = 0;
  for (std::size_t a = 0; a < sh.size(); ++a) {
    for (std::size_t b = 0; b < sh.size(); ++b) {
      for (std::size_t c = 0; c < sh.size(); ++c) {
        for (std::size_t d = 0; d < sh.size(); ++d) {
          const QuartetRef q{&sh[a], &sh[b], &sh[c], &sh[d]};
          engine.compute_batch(BatchedEriEngine::classify(q),
                               std::span<const QuartetRef>(&q, 1), out);
          ASSERT_EQ(out.size(), 1u);
          ASSERT_EQ(out[0].size(), 1u);
          const double ref = eri_ssss(sh[a], sh[b], sh[c], sh[d]);
          EXPECT_NEAR(out[0][0], ref, rel_tol(ref))
              << "(" << a << b << "|" << c << d << ")";
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, sh.size() * sh.size() * sh.size() * sh.size());
}

// Szabo & Ostlund, Table 3.8: H2/STO-3G at R = 1.4 bohr, now through the
// production engine rather than the reference one.
TEST(ClosedFormTest, KernelMakoH2MatchesSzaboOstlund) {
  Molecule h2;
  h2.add_atom(1, 0, 0, 0);
  h2.add_atom(1, 0, 0, 1.4);
  const BasisSet bs(h2, "sto-3g");
  const auto& sh = bs.shells();
  const BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  const auto eri = [&](int a, int b, int c, int d) {
    const QuartetRef q{&sh[a], &sh[b], &sh[c], &sh[d]};
    engine.compute_batch(BatchedEriEngine::classify(q),
                         std::span<const QuartetRef>(&q, 1), out);
    return out.at(0).at(0);
  };
  EXPECT_NEAR(eri(0, 0, 0, 0), 0.7746, 1e-4);
  EXPECT_NEAR(eri(0, 0, 1, 1), 0.5697, 1e-4);
  EXPECT_NEAR(eri(0, 1, 0, 1), 0.2970, 1e-4);
  EXPECT_NEAR(eri(0, 0, 0, 1), 0.4441, 1e-4);
}

// For s shells each (ab|ab) block is one integral, so the plan's bound is
// exactly sqrt((ab|ab)).
TEST(ClosedFormTest, PlanBoundsMatchClosedFormDiagonal) {
  const Molecule mol = h4_chain();
  const BasisSet bs(mol, "6-31g");
  const FockBuilder builder(bs);
  const auto& pairs = builder.plan().pairs();
  ASSERT_EQ(pairs.size(), bs.num_shells() * (bs.num_shells() + 1) / 2);
  for (const FockShellPair& p : pairs) {
    const double ref = std::sqrt(eri_ssss(*p.s1, *p.s2, *p.s1, *p.s2));
    EXPECT_NEAR(p.q, ref, 1e-12 * ref) << p.i1 << "," << p.i2;
    EXPECT_EQ(builder.schwarz()(p.i1, p.i2), p.q);
    EXPECT_EQ(builder.schwarz()(p.i2, p.i1), p.q);
  }
}

}  // namespace
}  // namespace mako
