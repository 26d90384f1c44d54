#include "compilermako/registry.hpp"

#include <cmath>
#include <set>

#include "kernelmako/class_plan.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

// Factor k into (na, nb) with na*nb == k, as square as possible, so the
// calibration shells reproduce the class's contraction degree.
std::pair<int, int> factor_contraction(int k) {
  int na = static_cast<int>(std::sqrt(static_cast<double>(k)));
  while (na > 1 && k % na != 0) --na;
  return {na, k / na};
}

Shell make_calibration_shell(int l, int nprim, const Vec3& center, Rng& rng) {
  Shell s;
  s.l = l;
  s.center = center;
  for (int i = 0; i < nprim; ++i) {
    // Even-tempered ladder in the chemically active exponent range.
    s.exponents.push_back(0.25 * std::pow(2.6, i) * rng.uniform(0.9, 1.1));
    s.coefficients.push_back(rng.uniform(0.3, 1.0));
  }
  normalize_shell(s);
  return s;
}

}  // namespace

std::vector<PairClass> enumerate_pair_classes(const BasisSet& basis) {
  std::set<PairClass> classes;
  const auto& shells = basis.shells();
  for (std::size_t i = 0; i < shells.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      classes.insert(PairClass{shells[i].l, shells[j].l,
                               shells[i].nprim() * shells[j].nprim()});
    }
  }
  return {classes.begin(), classes.end()};
}

std::vector<EriClassKey> enumerate_eri_classes(const BasisSet& basis) {
  const auto pairs = enumerate_pair_classes(basis);
  std::set<EriClassKey> classes;
  for (const PairClass& bra : pairs) {
    for (const PairClass& ket : pairs) {
      EriClassKey key;
      key.la = bra.l1;
      key.lb = bra.l2;
      key.lc = ket.l1;
      key.ld = ket.l2;
      key.kab = bra.k;
      key.kcd = ket.k;
      classes.insert(key);
    }
  }
  return {classes.begin(), classes.end()};
}

std::size_t prewarm_class_plans(const BasisSet& basis, EriPlanCache& cache) {
  const std::vector<EriClassKey> classes = enumerate_eri_classes(basis);
  for (const EriClassKey& key : classes) {
    (void)cache.get(key);
  }
  return classes.size();
}

CalibrationBatch make_calibration_batch(const EriClassKey& key,
                                        std::size_t num_quartets,
                                        unsigned seed) {
  CalibrationBatch batch;
  Rng rng(seed);
  const auto [na, nb] = factor_contraction(key.kab);
  const auto [nc, nd] = factor_contraction(key.kcd);

  batch.shells.reserve(num_quartets * 4);
  for (std::size_t q = 0; q < num_quartets; ++q) {
    auto jitter = [&rng]() {
      return Vec3{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                  rng.uniform(-1.5, 1.5)};
    };
    batch.shells.push_back(make_calibration_shell(key.la, na, jitter(), rng));
    batch.shells.push_back(make_calibration_shell(key.lb, nb, jitter(), rng));
    batch.shells.push_back(make_calibration_shell(key.lc, nc, jitter(), rng));
    batch.shells.push_back(make_calibration_shell(key.ld, nd, jitter(), rng));
  }
  for (std::size_t q = 0; q < num_quartets; ++q) {
    batch.quartets.push_back(QuartetRef{
        &batch.shells[q * 4 + 0], &batch.shells[q * 4 + 1],
        &batch.shells[q * 4 + 2], &batch.shells[q * 4 + 3]});
  }
  return batch;
}

}  // namespace mako
