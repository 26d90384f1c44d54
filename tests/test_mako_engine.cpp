// MakoEngine public-API integration tests.
#include <gtest/gtest.h>

#include "chem/builders.hpp"
#include "core/mako.hpp"

namespace mako {
namespace {

TEST(MakoEngineTest, QuickstartWaterHf) {
  MakoEngine engine({.basis = "sto-3g", .functional = "hf"});
  const MakoReport report = engine.compute_energy(make_water());
  EXPECT_TRUE(report.scf.converged);
  EXPECT_NEAR(report.scf.energy, -74.963, 1e-2);
  EXPECT_EQ(report.nbf, 7u);
  EXPECT_EQ(report.num_shells, 5u);
  EXPECT_GT(report.total_seconds, 0.0);
}

TEST(MakoEngineTest, SummaryContainsKeyMetrics) {
  MakoEngine engine({.basis = "sto-3g"});
  const MakoReport report = engine.compute_energy(make_water());
  const std::string text = report.summary();
  EXPECT_NE(text.find("Total Energy"), std::string::npos);
  EXPECT_NE(text.find("avg SCF iteration time"), std::string::npos);
  EXPECT_NE(text.find("total wall-clock time"), std::string::npos);
  EXPECT_NE(text.find("converged"), std::string::npos);
}

TEST(MakoEngineTest, QuantizationPreservesAccuracy) {
  MakoEngine exact({.basis = "sto-3g"});
  MakoEngine quant({.basis = "sto-3g", .quantization = true});
  const Molecule w = make_water();
  const double e1 = exact.compute_energy(w).scf.energy;
  const double e2 = quant.compute_energy(w).scf.energy;
  EXPECT_LT(std::fabs(e1 - e2), 1e-3);  // within 1 mHartree
}

TEST(MakoEngineTest, FixedIterationBenchmarkMode) {
  MakoOptions options;
  options.basis = "sto-3g";
  options.fixed_iterations = 3;
  MakoEngine engine(options);
  const MakoReport report = engine.compute_energy(make_water());
  EXPECT_EQ(report.scf.iterations, 3);
}

TEST(MakoEngineTest, UnknownBasisThrows) {
  MakoEngine engine({.basis = "not-a-basis"});
  EXPECT_THROW(engine.compute_energy(make_water()), std::out_of_range);
}

TEST(MakoEngineTest, UnknownFunctionalThrows) {
  MakoEngine engine({.basis = "sto-3g", .functional = "m06-hd"});
  EXPECT_THROW(engine.compute_energy(make_water()), std::invalid_argument);
}

}  // namespace
}  // namespace mako
