// End-to-end SCF tests: literature energy anchors, engine equivalence,
// quantized-SCF accuracy (the Table-3 contract), and driver behaviours.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "core/mako.hpp"
#include "integrals/one_electron.hpp"
#include "parallel/thread_pool.hpp"
#include "robust/status.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

Molecule h2_molecule() {
  Molecule m;
  m.add_atom(1, 0, 0, 0);
  m.add_atom(1, 0, 0, 1.4);
  return m;
}

TEST(ScfTest, H2Sto3gMatchesLiterature) {
  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  const ScfResult r = run_scf(h2, bs, {});
  EXPECT_TRUE(r.converged);
  // Szabo-Ostlund: E(RHF/STO-3G, R=1.4) = -1.1167 Eh.
  EXPECT_NEAR(r.energy, -1.1167, 2e-4);
  EXPECT_NEAR(r.e_nuclear, 1.0 / 1.4, 1e-12);
}

TEST(ScfTest, H2Sto3gEquilibriumBondLength) {
  // RHF/STO-3G places the H2 minimum at R = 1.346 bohr (Szabo-Ostlund,
  // Table 3.11).  A parabola through three bond lengths brackets it.
  const auto energy_at = [](double r) {
    Molecule h2;
    h2.add_atom(1, 0, 0, 0);
    h2.add_atom(1, 0, 0, r);
    const BasisSet bs(h2, "sto-3g");
    const ScfResult res = run_scf(h2, bs, {});
    EXPECT_TRUE(res.converged) << r;
    return res.energy;
  };
  const double h = 0.05;
  const double r0 = 1.35;
  const double em = energy_at(r0 - h);
  const double e0 = energy_at(r0);
  const double ep = energy_at(r0 + h);
  EXPECT_LT(e0, em);
  EXPECT_LT(e0, ep);
  const double r_min = r0 - h * (ep - em) / (2.0 * (ep - 2.0 * e0 + em));
  EXPECT_NEAR(r_min, 1.346, 5e-3);
}

TEST(ScfTest, WaterSto3gMatchesLiterature) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ScfResult r = run_scf(w, bs, {});
  EXPECT_TRUE(r.converged);
  // RHF/STO-3G at the experimental geometry: -74.9630 Eh (PySCF/Psi4).
  EXPECT_NEAR(r.energy, -74.96293, 1e-3);
}

TEST(ScfTest, Water631gMatchesLiterature) {
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  const ScfResult r = run_scf(w, bs, {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -75.9840, 2e-3);
}

TEST(ScfTest, QuantizedScfWithinChemicalAccuracy) {
  // The headline Table-3 contract: QuantMako-scheduled SCF agrees with the
  // FP64 reference to well under 1 mHartree.
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions exact;
  ScfOptions quant;
  quant.enable_quantization = true;
  const double e_exact = run_scf(w, bs, exact).energy;
  const ScfResult r_quant = run_scf(w, bs, quant);
  EXPECT_TRUE(r_quant.converged);
  EXPECT_LT(std::fabs(r_quant.energy - e_exact), 1e-3);
}

TEST(ScfTest, QuantizedIterationsActuallyQuantize) {
  const Molecule w = make_water_cluster(2, 4);
  const BasisSet bs(w, "sto-3g");
  ScfOptions quant;
  quant.enable_quantization = true;
  quant.precision.start_fp64_threshold = 1e2;  // route everything early
  const ScfResult r = run_scf(w, bs, quant);
  EXPECT_GT(r.iteration_log.front().quartets_quantized, 0);
  // Final iterations are exact.
  EXPECT_EQ(r.iteration_log.back().quartets_quantized, 0);
}

TEST(ScfTest, EnergyDecompositionConsistent) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ScfResult r = run_scf(w, bs, {});
  EXPECT_NEAR(r.energy,
              r.e_nuclear + r.e_one_electron + r.e_coulomb +
                  r.e_exact_exchange + r.e_xc,
              1e-10);
  EXPECT_LT(r.e_one_electron, 0.0);
  EXPECT_GT(r.e_coulomb, 0.0);
  EXPECT_LT(r.e_exact_exchange, 0.0);
}

TEST(ScfTest, OrbitalEnergiesOrderedAndOccupiedBound) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ScfResult r = run_scf(w, bs, {});
  for (std::size_t i = 1; i < r.orbital_energies.size(); ++i) {
    EXPECT_LE(r.orbital_energies[i - 1], r.orbital_energies[i] + 1e-12);
  }
  // Five doubly occupied orbitals, all bound (negative energy).
  for (int i = 0; i < 5; ++i) EXPECT_LT(r.orbital_energies[i], 0.0);
}

TEST(ScfTest, DensityTraceEqualsElectrons) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ScfResult r = run_scf(w, bs, {});
  // trace(D S) == N_e.  S has unit diagonal but off-diagonal structure, so
  // use the MO-space identity instead: sum over occupied of 2.
  // Simplest check: idempotency of D S D = 2 D (closed shell).
  // Here verify electron count via the XC-free route:
  double trace_ds = 0.0;
  const MatrixD s = overlap_matrix(bs);
  for (std::size_t i = 0; i < bs.nbf(); ++i)
    for (std::size_t j = 0; j < bs.nbf(); ++j)
      trace_ds += r.density(i, j) * s(j, i);
  EXPECT_NEAR(trace_ds, 10.0, 1e-9);
}

TEST(ScfTest, LdaWaterConverges) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions opt;
  opt.xc = XcFunctional(XcKind::kLDA);
  const ScfResult r = run_scf(w, bs, opt);
  EXPECT_TRUE(r.converged);
  // SVWN5/STO-3G water: around -74.73 Eh.
  EXPECT_NEAR(r.energy, -74.73, 0.05);
  EXPECT_LT(r.e_xc, 0.0);
}

TEST(ScfTest, B3lypWaterInExpectedRange) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions opt;
  opt.xc = XcFunctional(XcKind::kB3LYP);
  opt.grid = GridSpec::standard();
  const ScfResult r = run_scf(w, bs, opt);
  EXPECT_TRUE(r.converged);
  // B3LYP/STO-3G water: about -75.31 Eh (grid-quality dependent).
  EXPECT_NEAR(r.energy, -75.30, 0.08);
  EXPECT_LT(r.e_exact_exchange, 0.0);  // 20% exact exchange active
}

TEST(ScfTest, FixedIterationModeRunsExactCount) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions opt;
  opt.fixed_iterations = 4;
  const ScfResult r = run_scf(w, bs, opt);
  EXPECT_EQ(r.iterations, 4);
  EXPECT_EQ(r.iteration_log.size(), 4u);
  EXPECT_FALSE(r.converged);  // no convergence test in benchmark mode
}

TEST(ScfTest, AvgIterationExcludesFirst) {
  ScfResult r;
  r.iteration_log = {{0, 0, 10.0, 0, 0, 0},
                     {0, 0, 2.0, 0, 0, 0},
                     {0, 0, 4.0, 0, 0, 0}};
  EXPECT_DOUBLE_EQ(r.avg_iteration_seconds(), 3.0);
}

TEST(ScfTest, OpenShellRejected) {
  Molecule li;
  li.add_atom(3, 0, 0, 0);  // 3 electrons
  const BasisSet bs(li, "sto-3g");
  EXPECT_THROW(run_scf(li, bs, {}), std::invalid_argument);
}

TEST(ScfTest, LinearlyDependentBasisRejected) {
  // Two He atoms 1e-5 bohr apart: the two 1s functions collapse onto one
  // orthonormal function, too few for the two occupied orbitals.
  Molecule he2;
  he2.add_atom(2, 0, 0, 0);
  he2.add_atom(2, 0, 0, 1e-5);
  const BasisSet bs(he2, "sto-3g");
  try {
    run_scf(he2, bs, {});
    FAIL() << "a linearly dependent basis must be refused";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
    EXPECT_NE(std::strstr(e.what(), "linearly dependent"), nullptr)
        << e.what();
  }
}

TEST(ScfTest, ChargedClosedShellWorks) {
  Molecule li;
  li.add_atom(3, 0, 0, 0);
  li.set_charge(1);  // Li+ : 2 electrons
  const BasisSet bs(li, "sto-3g");
  const ScfResult r = run_scf(li, bs, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.energy, -7.0);  // Li+ RHF/STO-3G ~ -7.1 Eh
}

// --- Thread-count invariance ------------------------------------------------

/// The determinism contract of the pool: the Fock partition and every
/// reduction order are fixed independently of the thread count, so runs on
/// pools of 1, 2, 3 and 4 workers give the same bits.  Param: adaptive FP16
/// (true) or FP64 (false).
class ThreadCountInvarianceTest : public ::testing::TestWithParam<bool> {};

bool same_bits(const MatrixD& a, const MatrixD& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `mo` on the water dimer on pools of 1, 2, 3 and 4 workers and
/// expects every iteration energy, the final energy and the density to
/// agree bit for bit.  `quantized` also starts quantizing early and checks
/// that the first iteration did.
void expect_pool_invariance(const MakoOptions& mo, bool quantized) {
  const Molecule w = make_water_cluster(2);
  ScfOptions opts = scf_options_from(mo);
  if (quantized) opts.precision.start_fp64_threshold = 1e2;  // quantize early
  const BasisSet bs(w, mo.basis);

  const auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    ExecutionContextOptions o;
    o.pool = &pool;
    o.ranks = 1;
    const ExecutionContext ctx(o);
    return run_scf(w, bs, opts, &ctx);
  };
  const ScfResult one = run(1);
  ASSERT_TRUE(one.converged);
  if (quantized) {
    EXPECT_GT(one.iteration_log.front().quartets_quantized, 0);
  }
  for (const std::size_t workers : {2, 3, 4}) {
    const ScfResult other = run(workers);
    ASSERT_EQ(one.iteration_log.size(), other.iteration_log.size())
        << workers << " workers";
    for (std::size_t i = 0; i < one.iteration_log.size(); ++i) {
      EXPECT_EQ(std::memcmp(&one.iteration_log[i].energy,
                            &other.iteration_log[i].energy, sizeof(double)),
                0)
          << workers << " workers, iteration " << i;
    }
    EXPECT_EQ(std::memcmp(&one.energy, &other.energy, sizeof(double)), 0)
        << workers << " workers: " << one.energy << " vs " << other.energy;
    EXPECT_TRUE(same_bits(one.density, other.density)) << workers
                                                        << " workers";
  }
}

TEST_P(ThreadCountInvarianceTest, PoolsOfOneToFourWorkersAgreeBitForBit) {
  const bool quantized = GetParam();
  MakoOptions mo;
  mo.basis = "def2-svp";
  if (quantized) {
    mo.quantization = true;
    mo.precision = "adaptive";
  }
  expect_pool_invariance(mo, quantized);
}

INSTANTIATE_TEST_SUITE_P(Precisions, ThreadCountInvarianceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("AdaptiveFp16")
                                             : std::string("Fp64");
                         });

// The B3LYP leg: the XC quadrature's slices run on the pool too.
TEST(DftThreadCountInvarianceTest, B3lypPoolsOfOneToFourWorkersAgreeBitForBit) {
  MakoOptions mo;
  mo.basis = "def2-svp";
  mo.functional = "b3lyp";
  mo.grid = GridSpec::coarse();
  expect_pool_invariance(mo, false);
}

}  // namespace
}  // namespace mako
