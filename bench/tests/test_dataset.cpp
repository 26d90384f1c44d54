// Table 3's accuracy dataset generator: size, closed shells, unique names
// and the small subset.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "dataset.hpp"

namespace mako {
namespace {

TEST(DatasetTest, AtLeast200Entries) {
  const auto ds = build_accuracy_dataset();
  EXPECT_GE(ds.size(), 200u);
}

TEST(DatasetTest, AllEntriesClosedShell) {
  for (const auto& entry : build_accuracy_dataset()) {
    EXPECT_EQ(entry.molecule.num_electrons() % 2, 0) << entry.name;
    EXPECT_GT(entry.molecule.size(), 0u) << entry.name;
  }
}

TEST(DatasetTest, NamesUnique) {
  const auto ds = build_accuracy_dataset();
  std::set<std::string> names;
  for (const auto& e : ds) names.insert(e.name);
  EXPECT_EQ(names.size(), ds.size());
}

TEST(DatasetTest, SmallSubsetSamplesFull) {
  const auto small = build_accuracy_dataset_small(20);
  EXPECT_LE(small.size(), 20u);
  EXPECT_GE(small.size(), 10u);
}

}  // namespace
}  // namespace mako
