// Tests for the extended SCF driver options: incremental Fock builds, the
// TF32 precision ladder and the subspace diagonalizer.
#include <gtest/gtest.h>

#include <cmath>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

TEST(IncrementalFockTest, SameConvergedEnergy) {
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  ScfOptions full;
  ScfOptions incr;
  incr.incremental_fock = true;
  const ScfResult r_full = run_scf(w, bs, full);
  const ScfResult r_incr = run_scf(w, bs, incr);
  EXPECT_TRUE(r_incr.converged);
  EXPECT_NEAR(r_full.energy, r_incr.energy, 1e-8);
}

TEST(IncrementalFockTest, DeltaBuildsPruneMore) {
  const Molecule w = make_water_cluster(2, 3);
  const BasisSet bs(w, "sto-3g");
  ScfOptions incr;
  incr.incremental_fock = true;
  incr.incremental_rebuild_period = 100;  // never rebuild mid-run
  const ScfResult r = run_scf(w, bs, incr);
  ASSERT_GE(r.iteration_log.size(), 4u);
  // As the density settles, the delta-density screen prunes ever more
  // quartets: late iterations evaluate fewer than the first full build.
  const auto& first = r.iteration_log.front();
  const auto& late = r.iteration_log[r.iteration_log.size() - 2];
  EXPECT_LT(late.quartets_fp64, first.quartets_fp64);
  EXPECT_GT(late.quartets_pruned, first.quartets_pruned);
}

TEST(IncrementalFockTest, WorksWithQuantization) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions opt;
  opt.incremental_fock = true;
  opt.enable_quantization = true;
  const ScfResult r = run_scf(w, bs, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -74.96293, 1e-3);
}

TEST(PrecisionLadderTest, StepsFp16ToTf32) {
  const GemmCapabilities caps{/*quantized=*/true, "test"};
  PrecisionConfig ladder_cfg;
  ladder_cfg.use_precision_ladder = true;
  PrecisionGovernor plain(PrecisionConfig{}, /*enable_quantization=*/true,
                          caps, "test", 1e-11);
  PrecisionGovernor ladder(ladder_cfg, /*enable_quantization=*/true, caps,
                           "test", 1e-11);

  // Far from convergence: FP16 either way.
  EXPECT_EQ(ladder.plan_for_iteration(0, 0.5).quant_precision,
            Precision::kFP16);
  EXPECT_EQ(plain.plan_for_iteration(0, 0.5).quant_precision,
            Precision::kFP16);
  // Near convergence (but above the exact switch): ladder steps to TF32.
  EXPECT_EQ(ladder.plan_for_iteration(1, 1e-4).quant_precision,
            Precision::kTF32);
  EXPECT_EQ(plain.plan_for_iteration(1, 1e-4).quant_precision,
            Precision::kFP16);
}

TEST(PrecisionLadderTest, ScfWithLadderConverges) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions opt;
  opt.enable_quantization = true;
  opt.precision.use_precision_ladder = true;
  const ScfResult r = run_scf(w, bs, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -74.96293, 1e-3);
}

TEST(SubspaceDiagonalizerTest, MatchesDirectEnergy) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions direct;
  ScfOptions subspace;
  subspace.diagonalizer = Diagonalizer::kSubspace;
  const ScfResult rd = run_scf(w, bs, direct);
  const ScfResult rs = run_scf(w, bs, subspace);
  EXPECT_TRUE(rs.converged);
  EXPECT_NEAR(rd.energy, rs.energy, 1e-6);
}

TEST(SubspaceDiagonalizerTest, OccupiedSpectrumAgrees) {
  const Molecule h2 = [] {
    Molecule m;
    m.add_atom(1, 0, 0, 0);
    m.add_atom(1, 0, 0, 1.4);
    return m;
  }();
  const BasisSet bs(h2, "6-31g");
  ScfOptions subspace;
  subspace.diagonalizer = Diagonalizer::kSubspace;
  const ScfResult rs = run_scf(h2, bs, subspace);
  const ScfResult rd = run_scf(h2, bs, {});
  EXPECT_NEAR(rs.orbital_energies[0], rd.orbital_energies[0], 1e-6);
}

}  // namespace
}  // namespace mako
