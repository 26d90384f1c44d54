#include "scf/fock.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>

#include "compilermako/registry.hpp"
#include "core/execution_context.hpp"
#include "integrals/eri_reference.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

/// Max |D| over a shell block.
double shell_block_max(const MatrixD& d, const Shell& a, const Shell& b) {
  double m = 0.0;
  for (int i = 0; i < a.num_sph(); ++i) {
    for (int j = 0; j < b.num_sph(); ++j) {
      m = std::max(m, std::fabs(d(a.sph_offset + i, b.sph_offset + j)));
    }
  }
  return m;
}

/// Digests one spherical quartet tensor into J and K with the canonical
/// 8-fold permutation weights.  `v` is row-major [na][nb][nc][nd].
void digest_quartet(const MatrixD& d, MatrixD& j, MatrixD& k, const Shell& sa,
                    const Shell& sb, const Shell& sc, const Shell& sd,
                    double weight, const std::vector<double>& v) {
  const std::size_t oa = sa.sph_offset, ob = sb.sph_offset,
                    oc = sc.sph_offset, od = sd.sph_offset;
  const int na = sa.num_sph(), nb = sb.num_sph(), nc = sc.num_sph(),
            nd = sd.num_sph();
  std::size_t idx = 0;
  for (int m = 0; m < na; ++m) {
    for (int n = 0; n < nb; ++n) {
      for (int s = 0; s < nc; ++s) {
        for (int l = 0; l < nd; ++l, ++idx) {
          const double val = weight * v[idx];
          if (val == 0.0) continue;
          const std::size_t im = oa + m, in = ob + n, is = oc + s,
                            il = od + l;
          // Coulomb: both bra and ket pairs, both index orders.
          const double jbra = 2.0 * d(is, il) * val;
          const double jket = 2.0 * d(im, in) * val;
          j(im, in) += jbra;
          j(in, im) += jbra;
          j(is, il) += jket;
          j(il, is) += jket;
          // Exchange: four pairings plus transposes.
          const double k1 = d(in, il) * val;
          const double k2 = d(im, il) * val;
          const double k3 = d(in, is) * val;
          const double k4 = d(im, is) * val;
          k(im, is) += k1;
          k(is, im) += k1;
          k(in, is) += k2;
          k(is, in) += k2;
          k(im, il) += k3;
          k(il, im) += k3;
          k(in, il) += k4;
          k(il, in) += k4;
        }
      }
    }
  }
}

/// Runs fn(s) for s in [0, n).  n <= 1 runs inline without touching the pool
/// (and without materializing a std::function, keeping the serial steady
/// state allocation-free).
template <typename Fn>
void run_sharded(ThreadPool& pool, std::size_t n, const Fn& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  pool.parallel_for(n, [&](std::size_t s) { fn(s); });
}

/// The fixed owner-slice count is the unit of rank decomposition: the
/// communicator's rank cap and the plan's slice count must agree or the
/// contiguous-subtree ownership rule (communicator.hpp) breaks.
static_assert(FockPlan::kOwnerSlices ==
                  static_cast<std::size_t>(kMaxCommRanks),
              "owner-slice count must equal the communicator rank cap");

}  // namespace

/// Reusable working buffers of one builder: the dmax matrix, per-shard
/// routing buckets, the flattened batch-task list, and per-shard digestion
/// accumulators.  Everything here is cleared (capacity retained) rather than
/// reallocated, so steady-state build_jk calls perform no heap allocation.
struct FockBuilder::Scratch {
  struct Bucket {
    std::vector<QuartetRef> refs;  ///< ready-to-batch, class-homogeneous
    std::vector<float> weights;    ///< parallel to refs
  };
  struct RouteShard {
    std::vector<Bucket> buckets;  ///< [class_slot * 2 + quantized]
    std::int64_t fp64 = 0;
    std::int64_t quantized = 0;
    std::int64_t pruned = 0;
    std::int64_t fp64_high_l = 0;
    std::int64_t visited = 0;
    std::int64_t pruned_early = 0;
  };
  struct BatchTask {
    const EriClassPlan* cplan = nullptr;
    const BatchedEriEngine* engine = nullptr;
    const Bucket* bucket = nullptr;
    std::size_t start = 0, count = 0;
  };
  struct DigestShard {
    MatrixD j, k;
    std::vector<std::vector<double>> out;
    /// Inner buffers parked here when a batch is smaller than the previous
    /// one: compute_batch resizes `out` to the exact batch size, and letting
    /// the shrink destroy warmed vectors would re-allocate them on the next
    /// full-size batch.
    std::vector<std::vector<double>> spare;
    double eri_seconds = 0.0;
    double digest_seconds = 0.0;
    double gemm_flops = 0.0;
  };

  MatrixD dmax;                        ///< per-shell-pair density maxima
  std::vector<double> dmax_shard_max;  ///< per-shard |D| block maxima
  std::vector<RouteShard> route;       ///< one per owner slice
  std::vector<BatchTask> tasks;        ///< flattened slice-major
  /// Task range of owner slice s: [bounds[s], bounds[s+1]).
  std::array<std::size_t, FockPlan::kOwnerSlices + 1> slice_task_bounds{};
  std::vector<DigestShard> digest;  ///< one per owner slice
  /// Per-rank J/K partials staged for the allreduce (ranks > 1 only); warm
  /// across builds so the steady state stays allocation-free.
  std::vector<MatrixD> rank_j, rank_k;
};

FockBuilder::FockBuilder(const BasisSet& basis, FockOptions options,
                         const ExecutionContext* ctx)
    : basis_(basis),
      options_(options),
      ctx_(ctx != nullptr ? ctx : &ExecutionContext::process()),
      plan_(ctx_->components().get<FockPlanCache>().get(basis, ctx_->pool())),
      scratch_(std::make_unique<Scratch>()) {
  // CompilerMako static planning: warm the context's plan cache up front so
  // the first Fock build's hot path starts with every class plan resolved.
  if (options_.engine == EriEngineKind::kMako) {
    prewarm_class_plans(basis, ctx_->plans());
  }
}

FockBuilder::~FockBuilder() = default;

FockStats FockBuilder::build_jk(const MatrixD& density,
                                const IterationPolicy& policy, MatrixD& j,
                                MatrixD& k) const {
  obs::TraceSpan build_span(obs::TraceCat::kFock, "fock.build_jk");
  MAKO_METRIC_COUNT("fock.builds", 1);
  FockStats stats;
  Scratch& scratch = *scratch_;
  const FockPlan& plan = *plan_;
  const auto& pairs = plan.pairs();
  const std::size_t np = pairs.size();
  const auto& shells = basis_.shells();
  const std::size_t ns = shells.size();
  const std::size_t nbf = basis_.nbf();
  const std::size_t nslots = plan.quartet_classes().size();
  // Matrix::resize value-initializes every element, so no explicit fill.
  j.resize(nbf, nbf, 0.0);
  k.resize(nbf, nbf, 0.0);

  ThreadPool& pool = ctx_->pool();
  // Cooperative cancellation: shards poll the run's token at row/task
  // granularity and bail, leaving J/K partial; the driver reads
  // stats.cancelled and discards the build before any audit sees it.
  const CancelToken& cancel = ctx_->cancel();
  // The reference engine stays deliberately serial: it models the
  // irregular per-quartet baseline, and its eval/digest runs inline in the
  // routing loop.
  const bool par =
      options_.parallel && options_.engine == EriEngineKind::kMako;

  std::optional<ReferenceEriEngine> ref_engine;
  if (options_.engine == EriEngineKind::kReference) {
    ref_engine.emplace(options_.max_engine_l);
  }
  std::vector<double> ref_vals;

  // --- Density-dependent pass 1: per-shell-pair density maxima ------------
  // (iteration-invariant counterpart — bounds, pair order, class partition —
  // comes precomputed from the FockPlan).
  obs::TraceSpan screen_span(obs::TraceCat::kFock, "fock.screen");
  Timer route_timer;
  const std::size_t ndm =
      par ? std::min(ns, std::max<std::size_t>(pool.size(), 1)) : 1;
  scratch.dmax.resize(ns, ns, 0.0);
  scratch.dmax_shard_max.assign(std::max<std::size_t>(ndm, 1), 0.0);
  run_sharded(pool, ndm, [&](std::size_t s) {
    const std::size_t lo = s * ns / ndm;
    const std::size_t hi = (s + 1) * ns / ndm;
    double local = 0.0;
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = 0; b < ns; ++b) {
        const double m = shell_block_max(density, shells[a], shells[b]);
        scratch.dmax(a, b) = m;
        local = std::max(local, m);
      }
    }
    scratch.dmax_shard_max[s] = local;
  });
  double dmax_global = 0.0;
  for (std::size_t s = 0; s < ndm; ++s) {
    dmax_global = std::max(dmax_global, scratch.dmax_shard_max[s]);
  }
  // Injection site: corrupt the density-maxima table between the screening
  // passes.  A poisoned dmax mis-routes quartets (wrongly pruned or wrongly
  // quantized) for THIS build only — the recovery ladder's full-rebuild rung
  // must produce a clean build because the table is recomputed per call.
  if (MAKO_FAULT_POINT("fock.route")) {
    ctx_->faults().corrupt("fock.route", scratch.dmax.data(),
                           scratch.dmax.size());
    for (std::size_t s = 0; s < ns * ns; ++s) {
      dmax_global = std::max(dmax_global, scratch.dmax.data()[s]);
    }
  }
  const MatrixD& dmax = scratch.dmax;

  // --- Density-dependent pass 2: route every surviving quartet ------------
  // Pairs are sorted descending by Schwarz bound, so once
  // q_bra * q_ket * dmax_global drops below the smallest keep threshold the
  // rest of the scan is prunable in bulk without being visited.  With
  // prune_threshold == 0 the early exit never fires and every quartet is
  // visited, exactly like the exhaustive loop this replaces.
  const double min_keep =
      policy.allow_quantized
          ? std::min(policy.fp64_threshold, policy.prune_threshold)
          : policy.prune_threshold;
  const double dcap = std::max(dmax_global, 1e-30);

  // The routing (and digestion) grain is ALWAYS the plan's kOwnerSlices
  // fixed row slices — never the pool width — so the accumulation topology
  // is invariant under both the thread count and the rank count.  Rank
  // sharding is owner-computes over these slices; in-process, the union of
  // all ranks' slices is computed exactly once (no duplicated work), and
  // the rank boundary only determines what the allreduce moves.
  constexpr std::size_t kS = FockPlan::kOwnerSlices;
  const std::vector<std::size_t>& slice_rows = plan.slice_rows();
  scratch.route.resize(kS);
  scratch.digest.resize(kS);
  if (options_.engine == EriEngineKind::kReference) {
    // The reference engine digests inline during routing, so its per-slice
    // accumulators must be zeroed up front (the Mako path zeroes them in
    // the digestion pass instead).
    for (Scratch::DigestShard& shard : scratch.digest) {
      shard.j.resize(nbf, nbf, 0.0);
      shard.k.resize(nbf, nbf, 0.0);
      shard.eri_seconds = shard.digest_seconds = shard.gemm_flops = 0.0;
    }
  }

  const auto route_slice = [&](std::size_t s) {
    Scratch::RouteShard& rs = scratch.route[s];
    rs.buckets.resize(nslots * 2);
    for (Scratch::Bucket& bk : rs.buckets) {
      bk.refs.clear();
      bk.weights.clear();
    }
    rs.fp64 = rs.quantized = rs.pruned = rs.fp64_high_l = 0;
    rs.visited = rs.pruned_early = 0;

    const std::size_t lo = slice_rows[s];
    const std::size_t hi = slice_rows[s + 1];
    for (std::size_t bi = lo; bi < hi; ++bi) {
      if (cancel.cancelled()) return;  // shard bails; buckets stay partial
      const FockShellPair& pb = pairs[bi];
      // Row-level exit: every quartet with both pair indices >= bi is
      // bounded by q_bi^2 * dcap; below the keep threshold the rest of this
      // shard's triangle prunes as a closed form.
      if (pb.q * pb.q * dcap < min_keep) {
        const std::int64_t m = static_cast<std::int64_t>(hi - bi);
        const std::int64_t rem =
            m * static_cast<std::int64_t>(np - bi) - m * (m - 1) / 2;
        rs.pruned += rem;
        rs.pruned_early += rem;
        break;
      }
      for (std::size_t ki = bi; ki < np; ++ki) {
        const FockShellPair& pk = pairs[ki];
        if (pb.q * pk.q * dcap < min_keep) {
          const std::int64_t rem = static_cast<std::int64_t>(np - ki);
          rs.pruned += rem;
          rs.pruned_early += rem;
          break;
        }
        ++rs.visited;
        // Preserve the canonical role order of the exhaustive enumeration
        // (bra = lexicographically greater pair) so the density-weighted
        // bound and the digestion see identical index roles.
        const FockShellPair* bra = &pb;
        const FockShellPair* ket = &pk;
        if (pk.i1 > pb.i1 || (pk.i1 == pb.i1 && pk.i2 > pb.i2)) {
          std::swap(bra, ket);
        }
        const std::size_t a = bra->i1, b = bra->i2;
        const std::size_t c = ket->i1, dd = ket->i2;
        // Density-weighted Schwarz estimate over the six digest blocks.
        const double dw =
            std::max({dmax(a, b), dmax(c, dd), dmax(a, c), dmax(a, dd),
                      dmax(b, c), dmax(b, dd)});
        const double bound = bra->q * ket->q * std::max(dw, 1e-30);
        const IntegralClass route =
            policy.allow_quantized
                ? classify_integral(bound, policy.fp64_threshold,
                                    policy.prune_threshold)
                : (bound >= policy.prune_threshold ? IntegralClass::kFull
                                                   : IntegralClass::kPruned);
        if (route == IntegralClass::kPruned) {
          ++rs.pruned;
          continue;
        }
        bool quantized = route == IntegralClass::kQuantized;
        // Per-angular-momentum override from the governor's plan: high-L
        // quartets are the most rounding-sensitive, so a plan may pin them
        // to FP64 regardless of their weighted bound.
        if (quantized && policy.quantized_max_l >= 0) {
          const int lmax =
              std::max(std::max(bra->s1->l, bra->s2->l),
                       std::max(ket->s1->l, ket->s2->l));
          if (lmax > policy.quantized_max_l) {
            quantized = false;
            ++rs.fp64_high_l;
          }
        }
        if (quantized) {
          ++rs.quantized;
        } else {
          ++rs.fp64;
        }
        const float weight = pb.self_weight * pk.self_weight *
                             (bi == ki ? 0.5f : 1.0f);

        if (options_.engine == EriEngineKind::kReference) {
          // Serial baseline: evaluate and digest inline (the reference
          // engine has no tensor-core path; quantized routing degrades to
          // FP64 — it exists for protocol parity in comparisons).
          const Shell& sa = *bra->s1;
          const Shell& sb = *bra->s2;
          const Shell& sc = *ket->s1;
          const Shell& sd = *ket->s2;
          Scratch::DigestShard& shard = scratch.digest[s];
          Timer et;
          ref_engine->compute(sa, sb, sc, sd, ref_vals);
          shard.eri_seconds += et.seconds();
          Timer dt;
          digest_quartet(density, shard.j, shard.k, sa, sb, sc, sd, weight,
                         ref_vals);
          shard.digest_seconds += dt.seconds();
        } else {
          const std::uint32_t slot = plan.class_slot(bra->klass, ket->klass);
          Scratch::Bucket& bk =
              rs.buckets[slot * 2 + (quantized ? 1u : 0u)];
          bk.refs.push_back(QuartetRef{
              bra->s1, bra->s2, ket->s1, ket->s2,
              &plan.operand(static_cast<std::size_t>(bra - pairs.data())),
              &plan.operand(static_cast<std::size_t>(ket - pairs.data()))});
          bk.weights.push_back(weight);
        }
      }
    }
  };
  if (par) {
    run_sharded(pool, kS, route_slice);
  } else {
    for (std::size_t s = 0; s < kS; ++s) route_slice(s);
  }

  // Deterministic reduction: shard counters in slice order.
  for (std::size_t s = 0; s < kS; ++s) {
    const Scratch::RouteShard& rs = scratch.route[s];
    stats.quartets_fp64 += rs.fp64;
    stats.quartets_quantized += rs.quantized;
    stats.quartets_pruned += rs.pruned;
    stats.quartets_fp64_high_l += rs.fp64_high_l;
    stats.screen_visited += rs.visited;
    stats.screen_pruned_early += rs.pruned_early;
  }
  screen_span.end();
  double inline_digest_seconds = 0.0;
  if (options_.engine == EriEngineKind::kReference) {
    for (const Scratch::DigestShard& shard : scratch.digest) {
      inline_digest_seconds += shard.eri_seconds + shard.digest_seconds;
    }
  }
  stats.route_seconds =
      std::max(0.0, route_timer.seconds() - inline_digest_seconds);

  Timer jk_timer;
  if (options_.engine == EriEngineKind::kMako) {
    // Serial section: resolve one engine per (class, precision) — reused
    // across buckets and across successive build_jk calls — and flatten the
    // slice buckets into per-batch tasks.  Task order (slice-major, then
    // class slot, then precision route) is independent of the pool, so
    // repeated builds schedule identically; slice_task_bounds records each
    // slice's contiguous range so digestion stays owner-computes.
    scratch.tasks.clear();
    for (std::size_t s = 0; s < kS; ++s) {
      scratch.slice_task_bounds[s] = scratch.tasks.size();
      Scratch::RouteShard& rs = scratch.route[s];
      for (std::size_t slot = 0; slot < nslots; ++slot) {
        for (int q = 0; q < 2; ++q) {
          Scratch::Bucket& bk = rs.buckets[slot * 2 + q];
          if (bk.refs.empty()) continue;
          const bool quantized = q == 1;
          const EriClassKey& key = plan.quartet_classes()[slot];

          KernelConfig config;
          config.gemm.precision =
              quantized ? policy.quant_precision : Precision::kFP64;
          // Engines are bound to the context's backend, plan cache and
          // precision at construction; the precision is part of the key.
          const BatchedEriEngine& engine =
              engines_
                  .try_emplace(std::make_pair(key, config.gemm.precision),
                               config, &ctx_->backend(), &ctx_->plans())
                  .first->second;
          // Routed quartets read the plan's quantized operand copies.
          if (config.quantized()) plan.prepare_quantized(config.gemm.precision);
          const EriClassPlan& cplan = ctx_->plans().get(key);

          for (std::size_t start = 0; start < bk.refs.size();
               start += options_.batch_size) {
            const std::size_t count =
                std::min(options_.batch_size, bk.refs.size() - start);
            scratch.tasks.push_back(
                Scratch::BatchTask{&cplan, &engine, &bk, start, count});
          }
        }
      }
    }
    scratch.slice_task_bounds[kS] = scratch.tasks.size();

    // Parallel section: each owner slice digests its own contiguous task
    // range, in order, into its per-slice J/K accumulators (second stage of
    // dual-stage accumulation, FP64 throughout); the pinned fold below
    // reduces them.  Batches are class-segmented by construction, so the
    // engine skips its per-quartet homogeneity checks (verify_class =
    // false).
    const auto digest_slice = [&](std::size_t s) {
      obs::TraceSpan shard_span(obs::TraceCat::kFock, "fock.shard");
      if (shard_span.active()) {
        char args[32];
        std::snprintf(args, sizeof args, "\"shard\":%zu", s);
        shard_span.set_args(args);
      }
      Scratch::DigestShard& shard = scratch.digest[s];
      shard.j.resize(nbf, nbf, 0.0);
      shard.k.resize(nbf, nbf, 0.0);
      shard.eri_seconds = shard.digest_seconds = shard.gemm_flops = 0.0;
      for (std::size_t t = scratch.slice_task_bounds[s];
           t < scratch.slice_task_bounds[s + 1]; ++t) {
        if (cancel.cancelled()) return;  // slice bails; J/K stay partial
        const Scratch::BatchTask& task = scratch.tasks[t];
        const std::span<const QuartetRef> batch(
            task.bucket->refs.data() + task.start, task.count);
        // Park or reclaim warmed output buffers so compute_batch's
        // exact-size resize never frees capacity across batch sizes.
        while (shard.out.size() > task.count) {
          shard.spare.push_back(std::move(shard.out.back()));
          shard.out.pop_back();
        }
        while (shard.out.size() < task.count && !shard.spare.empty()) {
          shard.out.push_back(std::move(shard.spare.back()));
          shard.spare.pop_back();
        }
        // One ERI arena per thread, not per slice: arena contents never
        // reach the results, and 16 slice arenas would each grow to the
        // high-water mark of the classes they see.
        static thread_local EriScratch eri;
        Timer et;
        const BatchStats bs = task.engine->compute_batch(
            *task.cplan, batch, shard.out, eri, /*verify_class=*/false);
        shard.eri_seconds += et.seconds();
        shard.gemm_flops += bs.gemm_flops;
        Timer dt;
        for (std::size_t i = 0; i < task.count; ++i) {
          const QuartetRef& qr = batch[i];
          digest_quartet(density, shard.j, shard.k, *qr.a, *qr.b, *qr.c,
                         *qr.d, task.bucket->weights[task.start + i],
                         shard.out[i]);
        }
        shard.digest_seconds += dt.seconds();
      }
    };
    if (options_.parallel) {
      run_sharded(pool, kS, digest_slice);
    } else {
      for (std::size_t s = 0; s < kS; ++s) digest_slice(s);
    }
  }

  // Per-slice stats in slice order.  Summed across slices: with real
  // concurrency the CPU-time sums can exceed the wall-clock window
  // (jk_wall_seconds).
  for (std::size_t s = 0; s < kS; ++s) {
    const Scratch::DigestShard& shard = scratch.digest[s];
    stats.gemm_flops += shard.gemm_flops;
    stats.eri_seconds += shard.eri_seconds;
    stats.digest_seconds += shard.digest_seconds;
    stats.slice_compute_seconds[s] = shard.eri_seconds + shard.digest_seconds;
  }

  // --- Pinned fold + cross-rank reduction ---------------------------------
  // Skipped when cancelled: J/K stay partial and the driver discards them.
  if (!cancel.cancelled()) {
    MAKO_TRACE_SCOPE(obs::TraceCat::kFock, "fock.reduce");
    Communicator& comm = ctx_->comm();
    const int nranks = comm.size();
    const std::size_t per = kS / static_cast<std::size_t>(nranks);
    // Each rank folds its own contiguous slice block — a complete subtree
    // of the pinned 16-leaf tree — leaving the rank partial in the block's
    // first slice.
    std::array<MatrixD*, kS> part;
    for (int r = 0; r < nranks; ++r) {
      const std::size_t base = static_cast<std::size_t>(r) * per;
      for (std::size_t i = 0; i < per; ++i) {
        part[i] = &scratch.digest[base + i].j;
      }
      pinned_tree_sum(part.data(), per);
      for (std::size_t i = 0; i < per; ++i) {
        part[i] = &scratch.digest[base + i].k;
      }
      pinned_tree_sum(part.data(), per);
    }
    if (nranks == 1) {
      j += scratch.digest[0].j;
      k += scratch.digest[0].k;
    } else {
      // Stage the rank partials and allreduce in the pinned cross-rank
      // order; the composed association equals the single-rank 16-leaf
      // fold, so the delivered sum is bit-identical for every rank count.
      const CommStats before = comm.stats();
      scratch.rank_j.resize(static_cast<std::size_t>(nranks));
      scratch.rank_k.resize(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        const std::size_t base = static_cast<std::size_t>(r) * per;
        scratch.rank_j[static_cast<std::size_t>(r)] = scratch.digest[base].j;
        scratch.rank_k[static_cast<std::size_t>(r)] = scratch.digest[base].k;
      }
      stats.comm_seconds += comm.allreduce_sum(scratch.rank_j);
      stats.comm_status = comm.last_status();
      if (stats.comm_status.is_ok()) {
        stats.comm_seconds += comm.allreduce_sum(scratch.rank_k);
        stats.comm_status = comm.last_status();
      }
      const CommStats after = comm.stats();
      stats.comm_bytes = after.bytes - before.bytes;
      stats.comm_retries =
          static_cast<std::int64_t>(after.retries - before.retries);
      if (stats.comm_status.is_ok()) {
        j += scratch.rank_j[0];
        k += scratch.rank_k[0];
      }
      // On an exhausted retry budget J/K stay zero; comm_status carries
      // the fault and the driver hard-faults the iteration (a partial J is
      // symmetric and finite, so sentinel audits would never notice).
    }
  }

  if (options_.engine == EriEngineKind::kMako) {
    stats.jk_wall_seconds = jk_timer.seconds();
  } else {
    stats.jk_wall_seconds = stats.eri_seconds + stats.digest_seconds;
  }

  // Injection site: poison one J entry after digestion, but only for builds
  // that actually routed quartets through quantized kernels — this models a
  // quantized-kernel corruption escaping into the Fock matrix, the scenario
  // the precision-escalation rung exists for.  Escalating to FP64 makes the
  // site inert, so a recovered run converges to the FP64-exact result.
  if (stats.quartets_quantized > 0 && MAKO_FAULT_POINT("fock.j_poison")) {
    ctx_->faults().corrupt("fock.j_poison", j.data(), j.size());
  }

  stats.cancelled = cancel.cancelled();

  MAKO_METRIC_COUNT("fock.quartets_fp64", stats.quartets_fp64);
  MAKO_METRIC_COUNT("fock.quartets_quantized", stats.quartets_quantized);
  MAKO_METRIC_COUNT("fock.quartets_pruned", stats.quartets_pruned);
  MAKO_METRIC_COUNT("fock.screen_visited", stats.screen_visited);
  MAKO_METRIC_COUNT("fock.screen_pruned_early", stats.screen_pruned_early);
  MAKO_METRIC_OBSERVE("fock.eri_s", stats.eri_seconds);
  MAKO_METRIC_OBSERVE("fock.digest_s", stats.digest_seconds);
  MAKO_METRIC_OBSERVE("fock.route_s", stats.route_seconds);
  MAKO_METRIC_OBSERVE("fock.jk_wall_s", stats.jk_wall_seconds);
  if (stats.comm_bytes > 0) {
    MAKO_METRIC_OBSERVE("fock.comm_s", stats.comm_seconds);
  }
  if (build_span.active()) {
    char args[192];
    std::snprintf(args, sizeof args,
                  "\"fp64\":%lld,\"quantized\":%lld,\"pruned\":%lld,"
                  "\"visited\":%lld,\"pruned_early\":%lld",
                  static_cast<long long>(stats.quartets_fp64),
                  static_cast<long long>(stats.quartets_quantized),
                  static_cast<long long>(stats.quartets_pruned),
                  static_cast<long long>(stats.screen_visited),
                  static_cast<long long>(stats.screen_pruned_early));
    build_span.set_args(args);
  }
  return stats;
}

}  // namespace mako
