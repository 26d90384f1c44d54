// Rigid-motion invariance.  Translating a molecule leaves every integral
// unchanged.  Rotating it mixes the components of each spherical shell by an
// orthogonal matrix, so matrix spectra, ERI block norms and the SCF energy
// are unchanged.  A wrong sign or factor in one component of a d, f or g
// shell breaks that orthogonality and shows here even where a comparison of
// two engines that share the same code would not.
//
// The rotation checks stop at l = 2.  The vertical recursion in
// build_solid_harmonics (basis/spherical.cpp) scales the r^2 R_{l-1,m} term
// by (l+m)(l-m) where the scaled harmonics need 1, so the f and g rows with
// |m| <= l-2 are not harmonic and a rotation does not act orthogonally on
// them.  Correcting it changes every def2-TZVP energy, so it lands with the
// next regeneration of the benchmark references; these checks then extend
// to def2-tzvp and to the f and g classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "compilermako/registry.hpp"
#include "integrals/one_electron.hpp"
#include "kernelmako/batched_eri.hpp"
#include "linalg/eigen.hpp"
#include "scf/fock.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

using Rotation = std::array<Vec3, 3>;

// Rz(g) Ry(b) Rz(a) for fixed, generic Euler angles.
Rotation generic_rotation() {
  const double a = 0.37, b = 1.13, g = -0.71;
  const Rotation rz_a{{{std::cos(a), -std::sin(a), 0.0},
                       {std::sin(a), std::cos(a), 0.0},
                       {0.0, 0.0, 1.0}}};
  const Rotation ry_b{{{std::cos(b), 0.0, std::sin(b)},
                       {0.0, 1.0, 0.0},
                       {-std::sin(b), 0.0, std::cos(b)}}};
  const Rotation rz_g{{{std::cos(g), -std::sin(g), 0.0},
                       {std::sin(g), std::cos(g), 0.0},
                       {0.0, 0.0, 1.0}}};
  const auto mul = [](const Rotation& x, const Rotation& y) {
    Rotation r{};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        for (int k = 0; k < 3; ++k) r[i][j] += x[i][k] * y[k][j];
      }
    }
    return r;
  };
  return mul(rz_g, mul(ry_b, rz_a));
}

Vec3 rotate(const Rotation& r, const Vec3& v) {
  Vec3 out{};
  for (int i = 0; i < 3; ++i) {
    out[i] = r[i][0] * v[0] + r[i][1] * v[1] + r[i][2] * v[2];
  }
  return out;
}

constexpr Vec3 kShift{1.3, -0.7, 2.1};

Vec3 translate(const Vec3& v) {
  return {v[0] + kShift[0], v[1] + kShift[1], v[2] + kShift[2]};
}

template <class F>
Molecule moved(const Molecule& mol, F&& move) {
  std::vector<Atom> atoms = mol.atoms();
  for (Atom& a : atoms) a.position = move(a.position);
  return Molecule(atoms, mol.charge());
}

Molecule translated(const Molecule& mol) { return moved(mol, translate); }

Molecule rotated(const Molecule& mol) {
  const Rotation r = generic_rotation();
  return moved(mol, [&](const Vec3& v) { return rotate(r, v); });
}

void expect_matrices_near(const MatrixD& a, const MatrixD& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << i << "," << j;
    }
  }
}

void expect_spectra_near(const MatrixD& a, const MatrixD& b, double tol) {
  const auto ea = eigh(a).eigenvalues;
  const auto eb = eigh(b).eigenvalues;
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_NEAR(ea[i], eb[i], tol * std::max(1.0, std::fabs(ea[i]))) << i;
  }
}

class OneElectronRigidMotionTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OneElectronRigidMotionTest, MatricesTranslationInvariant) {
  const Molecule w = make_water();
  const Molecule wt = translated(w);
  const BasisSet bs(w, GetParam());
  const BasisSet bst(wt, GetParam());
  expect_matrices_near(overlap_matrix(bs), overlap_matrix(bst), 1e-12);
  expect_matrices_near(kinetic_matrix(bs), kinetic_matrix(bst), 1e-11);
  expect_matrices_near(nuclear_attraction_matrix(bs, w),
                       nuclear_attraction_matrix(bst, wt), 1e-11);
}

TEST_P(OneElectronRigidMotionTest, SpectraRotationInvariant) {
  const Molecule w = make_water();
  const Molecule wr = rotated(w);
  const BasisSet bs(w, GetParam());
  const BasisSet bsr(wr, GetParam());
  expect_spectra_near(overlap_matrix(bs), overlap_matrix(bsr), 1e-11);
  expect_spectra_near(kinetic_matrix(bs), kinetic_matrix(bsr), 1e-11);
  expect_spectra_near(nuclear_attraction_matrix(bs, w),
                      nuclear_attraction_matrix(bsr, wr), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Bases, OneElectronRigidMotionTest,
                         ::testing::Values("sto-3g", "6-31g", "def2-svp"));

TEST(RigidMotionTest, PlanBoundsTranslationInvariant) {
  const Molecule w = make_water();
  const BasisSet bs(w, "def2-tzvp");
  const BasisSet bst(translated(w), "def2-tzvp");
  const MatrixD q = FockBuilder(bs).schwarz();
  const MatrixD qt = FockBuilder(bst).schwarz();
  ASSERT_EQ(q.rows(), qt.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < q.cols(); ++j) {
      EXPECT_NEAR(qt(i, j), q(i, j), 1e-12 * q(i, j) + 1e-300)
          << i << "," << j;
    }
  }
}

// Every spherical index of (ab|cd) transforms orthogonally under a rotation
// of all four centres, so the Frobenius norm of the block is invariant.
TEST(RigidMotionTest, KernelMakoBlockNormsRotationInvariant) {
  const Rotation r = generic_rotation();
  const BatchedEriEngine engine;
  for (const EriClassKey& key :
       {EriClassKey{1, 1, 1, 1, 2, 2}, EriClassKey{2, 1, 2, 0, 1, 2},
        EriClassKey{2, 2, 2, 2, 1, 1}, EriClassKey{2, 2, 1, 1, 3, 1},
        EriClassKey{2, 0, 1, 0, 4, 2}}) {
    const CalibrationBatch batch = make_calibration_batch(key, 3, 17);
    std::vector<Shell> turned = batch.shells;
    for (Shell& s : turned) s.center = rotate(r, s.center);
    std::vector<QuartetRef> turned_quartets;
    for (std::size_t q = 0; q < batch.quartets.size(); ++q) {
      turned_quartets.push_back(QuartetRef{&turned[q * 4 + 0],
                                           &turned[q * 4 + 1],
                                           &turned[q * 4 + 2],
                                           &turned[q * 4 + 3]});
    }
    std::vector<std::vector<double>> out;
    std::vector<std::vector<double>> out_turned;
    engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets),
                         out);
    engine.compute_batch(key, std::span<const QuartetRef>(turned_quartets),
                         out_turned);
    ASSERT_EQ(out.size(), out_turned.size());
    for (std::size_t q = 0; q < out.size(); ++q) {
      double n = 0.0, nt = 0.0;
      for (double v : out[q]) n += v * v;
      for (double v : out_turned[q]) nt += v * v;
      EXPECT_GT(n, 0.0) << key.name();
      EXPECT_NEAR(std::sqrt(nt), std::sqrt(n), 1e-12 * std::sqrt(n))
          << key.name() << " quartet " << q;
    }
  }
}

TEST(RigidMotionTest, HfEnergyTranslationInvariant) {
  const Molecule w = make_water();
  const Molecule wt = translated(w);
  const BasisSet bs(w, "6-31g");
  const BasisSet bst(wt, "6-31g");
  const ScfResult r = run_scf(w, bs, {});
  const ScfResult rt = run_scf(wt, bst, {});
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(rt.converged);
  EXPECT_NEAR(rt.energy, r.energy, 1e-9);
  EXPECT_NEAR(rt.e_nuclear, r.e_nuclear, 1e-12);
}

TEST(RigidMotionTest, HfEnergyRotationInvariant) {
  const Molecule w = make_water();
  const Molecule wr = rotated(w);
  const BasisSet bs(w, "def2-svp");
  const BasisSet bsr(wr, "def2-svp");
  const ScfResult r = run_scf(w, bs, {});
  const ScfResult rr = run_scf(wr, bsr, {});
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(rr.converged);
  EXPECT_NEAR(rr.energy, r.energy, 1e-9);
  EXPECT_NEAR(rr.e_nuclear, r.e_nuclear, 1e-12);
}

}  // namespace
}  // namespace mako
