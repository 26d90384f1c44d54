// Enumeration of the ERI classes a basis set generates — CompilerMako's
// planning domain.  The combinatorial growth of this set with angular
// momentum is exactly the scalability problem Section 2.4.3 describes.
#pragma once

#include <vector>

#include "basis/basis_set.hpp"
#include "kernelmako/batched_eri.hpp"
#include "kernelmako/eri_class.hpp"

namespace mako {

/// Distinct (angular momentum pattern x contraction degree) classes among
/// all shell quartets of the basis.  Sorted ascending.
std::vector<EriClassKey> enumerate_eri_classes(const BasisSet& basis);

class EriPlanCache;

/// CompilerMako's static planning pass: constructs and caches an
/// EriClassPlan for every ERI class the basis generates in `cache`, so the
/// first Fock build starts with a warm plan registry and the hot path never
/// builds class tables.  Returns the number of classes planned.
std::size_t prewarm_class_plans(const BasisSet& basis, EriPlanCache& cache);

/// Convenience overload that warms the process-wide EriPlanCache.
std::size_t prewarm_class_plans(const BasisSet& basis);

/// Distinct bra/ket shell-pair classes (l1, l2, K) — the building blocks.
struct PairClass {
  int l1 = 0, l2 = 0, k = 1;
  [[nodiscard]] bool operator<(const PairClass& o) const {
    return std::tie(l1, l2, k) < std::tie(o.l1, o.l2, o.k);
  }
};
std::vector<PairClass> enumerate_pair_classes(const BasisSet& basis);

/// Builds a synthetic, geometrically plausible calibration batch for a class
/// (shells with even-tempered exponents at jittered centers).  Shared by the
/// microbenchmarks and the kernel tests.
struct CalibrationBatch {
  std::vector<Shell> shells;       ///< backing storage
  std::vector<QuartetRef> quartets;
};
CalibrationBatch make_calibration_batch(const EriClassKey& key,
                                        std::size_t num_quartets,
                                        unsigned seed = 42);

}  // namespace mako
