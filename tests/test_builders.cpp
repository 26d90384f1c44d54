// Geometry builder tests.
#include <gtest/gtest.h>

#include <map>

#include "chem/builders.hpp"
#include "chem/elements.hpp"

namespace mako {
namespace {

std::map<int, int> composition(const Molecule& m) {
  std::map<int, int> comp;
  for (const Atom& a : m.atoms()) ++comp[a.z];
  return comp;
}

double min_pair_distance(const Molecule& m) {
  double best = 1e300;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = i + 1; j < m.size(); ++j) {
      best = std::min(best,
                      distance(m.atoms()[i].position, m.atoms()[j].position));
    }
  }
  return best;
}

TEST(BuildersTest, WaterGeometry) {
  const Molecule w = make_water();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.atoms()[0].z, 8);
  const double roh =
      distance(w.atoms()[0].position, w.atoms()[1].position);
  EXPECT_NEAR(roh * kAngstromPerBohr, 0.9572, 1e-6);
}

class WaterClusterTest : public ::testing::TestWithParam<int> {};

TEST_P(WaterClusterTest, HasRightSizeAndNoClashes) {
  const auto n = static_cast<std::size_t>(GetParam());
  const Molecule c = make_water_cluster(n);
  EXPECT_EQ(c.size(), 3 * n);
  const auto comp = composition(c);
  EXPECT_EQ(comp.at(8), static_cast<int>(n));
  EXPECT_EQ(comp.at(1), static_cast<int>(2 * n));
  if (n > 1) {
    EXPECT_GT(min_pair_distance(c) * kAngstromPerBohr, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WaterClusterTest,
                         ::testing::Values(1, 2, 3, 8, 27, 60));

TEST(BuildersTest, WaterClusterDeterministic) {
  const Molecule a = make_water_cluster(5, 9);
  const Molecule b = make_water_cluster(5, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.atoms()[i].position[0], b.atoms()[i].position[0]);
  }
}

class PolyglycineTest : public ::testing::TestWithParam<int> {};

TEST_P(PolyglycineTest, CompositionMatchesFormula) {
  const auto n = static_cast<std::size_t>(GetParam());
  // H-(NH-CH2-CO)_n-OH: C 2n, N n, O n+1, H 3n+2.
  const Molecule g = make_polyglycine(n);
  const auto comp = composition(g);
  EXPECT_EQ(comp.at(6), static_cast<int>(2 * n));
  EXPECT_EQ(comp.at(7), static_cast<int>(n));
  EXPECT_EQ(comp.at(8), static_cast<int>(n + 1));
  EXPECT_EQ(comp.at(1), static_cast<int>(3 * n + 2));
  EXPECT_GT(min_pair_distance(g) * kAngstromPerBohr, 0.6);
  EXPECT_EQ(g.num_electrons() % 2, 0) << "closed shell required";
}

INSTANTIATE_TEST_SUITE_P(Lengths, PolyglycineTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(BuildersTest, SyntheticProteinMatchesUbiquitinStats) {
  const Molecule p = make_synthetic_protein(1231);
  EXPECT_EQ(p.size(), 1231u);
  const auto comp = composition(p);
  // Ubiquitin: C378 H629 N105 O118 S1 — allow rounding slack.
  EXPECT_NEAR(comp.at(6), 378, 3);
  EXPECT_NEAR(comp.at(1), 629, 3);
  EXPECT_NEAR(comp.at(7), 105, 3);
  EXPECT_NEAR(comp.at(8), 118, 3);
  EXPECT_GE(comp.at(16), 1);
}

TEST(BuildersTest, SyntheticProteinNoAtomClashes) {
  const Molecule p = make_synthetic_protein(400, 3);
  EXPECT_EQ(p.size(), 400u);
  EXPECT_GT(min_pair_distance(p) * kAngstromPerBohr, 0.9);
}

class AlkaneTest : public ::testing::TestWithParam<int> {};

TEST_P(AlkaneTest, Formula) {
  const auto n = static_cast<std::size_t>(GetParam());
  const Molecule a = make_alkane(n);
  const auto comp = composition(a);
  EXPECT_EQ(comp.at(6), static_cast<int>(n));
  EXPECT_EQ(comp.at(1), static_cast<int>(2 * n + 2));
}

INSTANTIATE_TEST_SUITE_P(Chain, AlkaneTest, ::testing::Values(1, 2, 4, 10));

TEST(BuildersTest, MetalComplexStructure) {
  const Molecule c = make_metal_complex(26, 6);  // Fe(H2O)6
  EXPECT_EQ(c.size(), 1u + 6u * 3u);
  EXPECT_EQ(c.atoms()[0].z, 26);
}

}  // namespace
}  // namespace mako
