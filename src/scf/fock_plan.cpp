#include "scf/fock_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>
#include <tuple>

#include "basis/spherical.hpp"
#include "kernelmako/batched_eri.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "robust/fault_injector.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

/// Diagonal quartets per KernelMako batch of the Schwarz-bound pass.
constexpr std::size_t kBoundBatch = 32;

inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

/// Row boundary of owner slice `s` of `nslices` over the pair triangle:
/// bra row bi spans kets [bi, np), so row bi holds np - bi quartets and the
/// balanced-area boundary follows 1 - sqrt(1 - s/nslices).
std::size_t slice_boundary(std::size_t np, std::size_t s,
                           std::size_t nslices) {
  if (s == 0) return 0;
  if (s >= nslices) return np;
  const double frac = static_cast<double>(s) / static_cast<double>(nslices);
  const double r = static_cast<double>(np) * (1.0 - std::sqrt(1.0 - frac));
  return std::min(np, static_cast<std::size_t>(std::llround(r)));
}

}  // namespace

FockPlan::FockPlan(const BasisSet& basis, ThreadPool& pool) {
  obs::TraceSpan span(obs::TraceCat::kFock, "fock.plan_build");
  Timer timer;

  const auto& shells = basis.shells();
  const std::size_t ns = shells.size();

  // Pair table: every symmetry-unique pair with its class id, in canonical
  // (i1, i2 <= i1) order until the bounds are known.
  std::map<std::tuple<int, int, int>, std::uint32_t> pair_class_ids;
  std::vector<FockShellPair> pairs;
  pairs.reserve(ns * (ns + 1) / 2);
  for (std::size_t i1 = 0; i1 < ns; ++i1) {
    for (std::size_t i2 = 0; i2 <= i1; ++i2) {
      const Shell& s1 = shells[i1];
      const Shell& s2 = shells[i2];
      const std::tuple<int, int, int> pc{s1.l, s2.l,
                                         s1.nprim() * s2.nprim()};
      const std::uint32_t id =
          pair_class_ids
              .try_emplace(pc,
                           static_cast<std::uint32_t>(pair_class_ids.size()))
              .first->second;
      FockShellPair pair;
      pair.s1 = &s1;
      pair.s2 = &s2;
      pair.i1 = static_cast<std::uint32_t>(i1);
      pair.i2 = static_cast<std::uint32_t>(i2);
      pair.klass = id;
      pair.self_weight = (i1 == i2) ? 0.5f : 1.0f;
      pairs.push_back(pair);
    }
  }
  const std::size_t np = pairs.size();

  // Stacked ERI operands, one per pair; each has a unique writer, so the
  // parallel build is deterministic.
  std::vector<PairOperand> operands(np);
  pool.parallel_for(np, [&](std::size_t i) {
    const FockShellPair& pr = pairs[i];
    build_pair_operand(*pr.s1, *pr.s2, cart_to_sph_pair(pr.s1->l, pr.s2->l),
                       operands[i]);
  });

  // Schwarz bounds Q_ab = sqrt(max |(ab|ab)|) over the spherical block, from
  // KernelMako at FP64 on the operands just built.  The diagonal quartets
  // are batched by pair class in fixed chunks — independent of the pool
  // width, so the bounds are too — and each chunk writes only its own
  // pairs' bounds.  Shards stride over the chunks, each with a scratch
  // arena that dies with the pass, and class plans come from a cache local
  // to the pass, so the plan leaves no per-thread buffers or class plans
  // behind.
  std::vector<std::vector<std::uint32_t>> by_class(pair_class_ids.size());
  for (std::size_t i = 0; i < np; ++i) {
    by_class[pairs[i].klass].push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<std::span<const std::uint32_t>> chunks;
  for (const auto& members : by_class) {
    for (std::size_t b = 0; b < members.size(); b += kBoundBatch) {
      chunks.emplace_back(members.data() + b,
                          std::min(kBoundBatch, members.size() - b));
    }
  }
  EriPlanCache class_plans;
  const BatchedEriEngine engine({}, nullptr, &class_plans);
  const std::size_t nshards =
      std::min(chunks.size(), std::max<std::size_t>(pool.size(), 1));
  pool.parallel_for(nshards, [&](std::size_t s) {
    EriScratch scratch;
    std::vector<QuartetRef> batch;
    std::vector<std::vector<double>> out;
    for (std::size_t c = s; c < chunks.size(); c += nshards) {
      batch.clear();
      for (const std::uint32_t i : chunks[c]) {
        const FockShellPair& pr = pairs[i];
        batch.push_back(
            {pr.s1, pr.s2, pr.s1, pr.s2, &operands[i], &operands[i]});
      }
      engine.compute_batch(
          class_plans.get(BatchedEriEngine::classify(batch.front())), batch,
          out, scratch);
      for (std::size_t k = 0; k < batch.size(); ++k) {
        double mx = 0.0;
        for (const double v : out[k]) mx = std::max(mx, std::fabs(v));
        pairs[chunks[c][k]].q = std::sqrt(mx);
      }
    }
  });
  schwarz_ = MatrixD(ns, ns, 0.0);
  for (const FockShellPair& pr : pairs) {
    schwarz_(pr.i1, pr.i2) = pr.q;
    schwarz_(pr.i2, pr.i1) = pr.q;
  }

  // Injection site: corrupt the Schwarz table at plan-build time.  This is
  // the nastiest screening fault — the plan is cached for the whole run, so
  // an unsanitized NaN bound would silently mis-prune EVERY subsequent
  // iteration, not just one build.  The sanitize pass below is what keeps
  // that failure mode survivable.
  if (MAKO_FAULT_POINT("fock.plan_build")) {
    FaultInjector::instance().corrupt("fock.plan_build", schwarz_.data(),
                                      schwarz_.size());
  }

  // Sanitize: a non-finite Schwarz bound (overflowed primitive pair, injected
  // corruption, bad basis data) must not reach the routing comparisons —
  // NaN compares false against every threshold, which silently drops the
  // quartet.  Replace each with the largest finite bound (never prune what
  // we cannot bound) and make the repair observable.
  {
    double qmax = 0.0;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < schwarz_.size(); ++i) {
      const double q = schwarz_.data()[i];
      if (std::isfinite(q)) qmax = std::max(qmax, q);
    }
    if (qmax <= 0.0) qmax = 1.0;
    for (std::size_t i = 0; i < schwarz_.size(); ++i) {
      if (!std::isfinite(schwarz_.data()[i])) {
        schwarz_.data()[i] = qmax;
        ++bad;
      }
    }
    if (bad > 0) {
      MAKO_METRIC_COUNT("fock.plan_bounds_sanitized",
                        static_cast<std::int64_t>(bad));
      log_warn(
          "FockPlan: %zu non-finite Schwarz bound(s) replaced with the max "
          "finite bound %.3e — affected quartets route to FP64 instead of "
          "being mis-pruned",
          bad, qmax);
    }
  }

  // Sort the pairs descending by bound so the routing scan can exit early;
  // ties break on shell indices to keep the order deterministic.  Operands
  // move along with their pairs.
  for (FockShellPair& pr : pairs) pr.q = schwarz_(pr.i1, pr.i2);
  std::vector<std::uint32_t> order(np);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    const FockShellPair& a = pairs[x];
    const FockShellPair& b = pairs[y];
    if (a.q != b.q) return a.q > b.q;
    if (a.i1 != b.i1) return a.i1 < b.i1;
    return a.i2 < b.i2;
  });
  pairs_.reserve(np);
  operands_.reserve(np);
  for (const std::uint32_t i : order) {
    pairs_.push_back(pairs[i]);
    operands_.push_back(std::move(operands[i]));
  }

  // Owner-computes partition: kOwnerSlices fixed row slices of the sorted
  // triangle, monotone and area-balanced.  These boundaries are part of the
  // plan (not per-build state) because they define where the rank boundary
  // may sit; see slice_rows().
  slice_rows_.resize(kOwnerSlices + 1);
  for (std::size_t s = 0; s <= kOwnerSlices; ++s) {
    slice_rows_[s] =
        std::max(slice_boundary(np, s, kOwnerSlices),
                 s > 0 ? slice_rows_[s - 1] : std::size_t{0});
  }

  // Quartet-class table: class key of (bra pair class x ket pair class),
  // deduplicated into slots.  O(1) lookup replaces the per-quartet
  // std::map bucket the old screen phase paid on every iteration.
  npc_ = pair_class_ids.size();
  std::vector<std::tuple<int, int, int>> rep(npc_);
  for (const auto& [pc, id] : pair_class_ids) rep[id] = pc;
  slot_.resize(npc_ * npc_);
  std::map<EriClassKey, std::uint32_t> class_ids;
  for (std::size_t bc = 0; bc < npc_; ++bc) {
    for (std::size_t kc = 0; kc < npc_; ++kc) {
      EriClassKey key;
      key.la = std::get<0>(rep[bc]);
      key.lb = std::get<1>(rep[bc]);
      key.kab = std::get<2>(rep[bc]);
      key.lc = std::get<0>(rep[kc]);
      key.ld = std::get<1>(rep[kc]);
      key.kcd = std::get<2>(rep[kc]);
      const std::uint32_t slot =
          class_ids
              .try_emplace(key, static_cast<std::uint32_t>(class_ids.size()))
              .first->second;
      slot_[bc * npc_ + kc] = slot;
    }
  }
  classes_.resize(class_ids.size());
  for (const auto& [key, slot] : class_ids) classes_[slot] = key;

  MAKO_METRIC_OBSERVE("fock.plan_build_s", timer.seconds());
  if (span.active()) {
    char args[96];
    std::snprintf(args, sizeof args, "\"pairs\":%zu,\"classes\":%zu",
                  pairs_.size(), classes_.size());
    span.set_args(args);
  }
}

void FockPlan::prepare_quantized(Precision p) const {
  if (p == Precision::kFP64) return;
  const std::size_t slot = quantized_slot(p);
  std::call_once(quantized_once_[slot], [&] {
    for (PairOperand& op : operands_) {
      op.q[slot].resize(op.e.size());
      quantize_pair_operand(op, p, op.q[slot].data());
    }
  });
}

std::uint64_t FockPlan::fingerprint(const BasisSet& basis) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const std::size_t ns = basis.num_shells();
  const std::size_t nbf = basis.nbf();
  fnv1a(h, &ns, sizeof ns);
  fnv1a(h, &nbf, sizeof nbf);
  for (const Shell& s : basis.shells()) {
    fnv1a(h, &s.l, sizeof s.l);
    fnv1a(h, &s.atom, sizeof s.atom);
    fnv1a(h, &s.sph_offset, sizeof s.sph_offset);
    fnv1a(h, s.center.data(), 3 * sizeof(double));
    fnv1a(h, s.exponents.data(), s.exponents.size() * sizeof(double));
    fnv1a(h, s.coefficients.data(), s.coefficients.size() * sizeof(double));
  }
  return h;
}

FockPlanCache::~FockPlanCache() {
  for (const auto& [key, entry] : plans_) {
    if (const auto anchor = entry.basis.lock()) anchor->detach(this);
  }
}

std::shared_ptr<const FockPlan> FockPlanCache::find(
    const BasisAnchor* anchor) const {
  const auto it = plans_.find(anchor);
  if (it == plans_.end() || it->second.basis.expired()) return nullptr;
  return it->second.plan.lock();
}

std::shared_ptr<const FockPlan> FockPlanCache::get(const BasisSet& basis,
                                                   ThreadPool& pool) {
  const std::shared_ptr<BasisAnchor>& anchor = basis.anchor();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto plan = find(anchor.get())) {
      ++hits_;
      MAKO_METRIC_COUNT("fock.plan_cache_hits", 1);
      return plan;
    }
  }
  // Build outside the lock: plan construction runs parallel operand and
  // Schwarz passes and must not serialize unrelated lookups behind it.  A concurrent build
  // of the same basis is benign — the first inserted plan wins.
  auto plan = std::make_shared<const FockPlan>(basis, pool);
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto existing = find(anchor.get())) {
    ++hits_;
    return existing;
  }
  // Entries of dead bases hold nothing but their expired references.
  std::erase_if(plans_, [](const auto& e) { return e.second.basis.expired(); });
  anchor->attach(this, plan);
  plans_[anchor.get()] = Entry{anchor, plan};
  ++builds_;
  MAKO_METRIC_COUNT("fock.plan_builds", 1);
  return plan;
}

std::size_t FockPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      plans_.begin(), plans_.end(),
      [](const auto& e) { return !e.second.basis.expired(); }));
}

std::int64_t FockPlanCache::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

std::int64_t FockPlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

}  // namespace mako
