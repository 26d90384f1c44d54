#include "kernelmako/batched_eri.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "basis/spherical.hpp"
#include "integrals/hermite.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault_injector.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Striped -> blocked conversion of the batch r-integral tensor.
/// striped[h * nq + q] -> blocked[q * nh + h].
///
/// The swizzled variant stages 32x32 tiles through a TileBuffer using the
/// XOR layout of Eq. 10: rows are written in striped order and columns read
/// in blocked order, both conflict-free — this is the in-SMEM transpose of
/// Section 3.1.2.  The naive variant models the direct strided gather.
void striped_to_blocked(const double* striped, double* blocked, std::size_t nh,
                        std::size_t nq, bool use_swizzle) {
  if (!use_swizzle) {
    for (std::size_t h = 0; h < nh; ++h) {
      for (std::size_t q = 0; q < nq; ++q) {
        blocked[q * nh + h] = striped[h * nq + q];
      }
    }
    return;
  }

  // Tiled transpose through a swizzled 32x32 staging tile.  The XOR column
  // mapping (Eq. 10) is applied inline; on the host this doubles as a
  // cache-blocked transpose, on the modeled device it is the conflict-free
  // in-SMEM layout conversion (verified separately via TileBuffer).
  constexpr std::size_t kTile = 32;
  double tile[kTile * kTile];
  for (std::size_t h0 = 0; h0 < nh; h0 += kTile) {
    const std::size_t hN = std::min(kTile, nh - h0);
    for (std::size_t q0 = 0; q0 < nq; q0 += kTile) {
      const std::size_t qN = std::min(kTile, nq - q0);
      // Coalesced load: lanes sweep q for each h row; store swizzled.
      for (std::size_t h = 0; h < hN; ++h) {
        const double* src = striped + (h0 + h) * nq + q0;
        double* row = tile + h * kTile;
        for (std::size_t q = 0; q < qN; ++q) row[q ^ h] = src[q];
      }
      // Conflict-free transposed read: lanes sweep h for each q.
      for (std::size_t q = 0; q < qN; ++q) {
        double* dst = blocked + (q0 + q) * nh + h0;
        for (std::size_t h = 0; h < hN; ++h) dst[h] = tile[h * kTile + (q ^ h)];
      }
    }
  }
}

double max_abs(const double* p, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

}  // namespace

EriClassKey BatchedEriEngine::classify(const QuartetRef& q) {
  EriClassKey key;
  key.la = q.a->l;
  key.lb = q.b->l;
  key.lc = q.c->l;
  key.ld = q.d->l;
  key.kab = q.a->nprim() * q.b->nprim();
  key.kcd = q.c->nprim() * q.d->nprim();
  return key;
}

const GemmBackend& BatchedEriEngine::backend() const {
  return backend_ != nullptr
             ? *backend_
             : resolve_gemm_backend(GemmBackendRegistry::kDefaultName);
}

BatchStats BatchedEriEngine::compute_batch(
    const EriClassKey& key, std::span<const QuartetRef> batch,
    std::vector<std::vector<double>>& out) const {
  static thread_local EriScratch scratch;
  EriPlanCache& plans =
      plans_ != nullptr ? *plans_ : EriPlanCache::process();
  return compute_batch(plans.get(key), batch, out, scratch);
}

BatchStats BatchedEriEngine::compute_batch(
    const EriClassPlan& plan, std::span<const QuartetRef> batch,
    std::vector<std::vector<double>>& out, EriScratch& scratch,
    bool verify_class) const {
  Timer timer;
  BatchStats stats;
  const EriClassKey& key = plan.key();
  const std::size_t nq = batch.size();
  out.resize(nq);
  if (nq == 0) return stats;

  obs::TraceSpan span(obs::TraceCat::kKernel, "kernelmako.batch");
  if (span.active()) {
    char args[96];
    std::snprintf(args, sizeof args,
                  "\"class\":\"(%d%d|%d%d)\",\"quartets\":%zu", key.la, key.lb,
                  key.lc, key.ld, nq);
    span.set_args(args);
  }
  MAKO_METRIC_COUNT("kernel.batches", 1);
  MAKO_METRIC_COUNT("kernel.quartets",
                    static_cast<std::int64_t>(nq));

  const std::size_t nhb = static_cast<std::size_t>(plan.nhb);
  const std::size_t nhk = static_cast<std::size_t>(plan.nhk);
  const std::size_t nht = static_cast<std::size_t>(plan.nht);
  const std::size_t nsb = static_cast<std::size_t>(plan.nsb);
  const std::size_t nsk = static_cast<std::size_t>(plan.nsk);
  const int ltot = plan.ltot;
  const std::size_t kab = static_cast<std::size_t>(key.kab);
  const std::size_t kcd = static_cast<std::size_t>(key.kcd);
  const std::size_t kk = kab * kcd;  // primitive-pair combinations
  const std::size_t mb = kab * nhb;  // rows of E'_AB = GEMM1 depth
  const std::size_t mk = kcd * nhk;  // rows of E'_CD = GEMM2 depth
  const std::size_t pq_size = mb * mk;
  const std::size_t t_size = nsb * mk;
  const std::size_t out_size = nsb * nsk;

  if (verify_class) {
    for (const QuartetRef& ref : batch) {
      if (ref.a->l != key.la || ref.b->l != key.lb || ref.c->l != key.lc ||
          ref.d->l != key.ld) {
        throw std::invalid_argument("compute_batch: heterogeneous batch");
      }
      if (ref.a->nprim() * ref.b->nprim() != key.kab ||
          ref.c->nprim() * ref.d->nprim() != key.kcd) {
        throw std::invalid_argument(
            "compute_batch: contraction degree mismatch with class key");
      }
      if ((ref.bra != nullptr && ref.bra->e.size() != mb * nsb) ||
          (ref.ket != nullptr && ref.ket->e.size() != mk * nsk)) {
        throw std::invalid_argument(
            "compute_batch: pair operand shape mismatch with class key");
      }
    }
  }

  // --- Stage 0: stacked pair operands -------------------------------------
  // Routed quartets carry their pairs' plan-owned operands; the rest are
  // built here by the same function.  The arena only grows: shrinking it
  // would free warmed operand storage.
  if (scratch.ops.size() < 2 * nq) scratch.ops.resize(2 * nq);
  for (std::size_t q = 0; q < nq; ++q) {
    const QuartetRef& ref = batch[q];
    if (ref.bra == nullptr) {
      build_pair_operand(*ref.a, *ref.b, *plan.sph_bra, scratch.ops[2 * q]);
    }
    if (ref.ket == nullptr) {
      build_pair_operand(*ref.c, *ref.d, *plan.sph_ket,
                         scratch.ops[2 * q + 1]);
    }
  }
  const auto bra_op = [&](std::size_t q) -> const PairOperand& {
    return batch[q].bra != nullptr ? *batch[q].bra : scratch.ops[2 * q];
  };
  const auto ket_op = [&](std::size_t q) -> const PairOperand& {
    return batch[q].ket != nullptr ? *batch[q].ket : scratch.ops[2 * q + 1];
  };

  // --- Stage 1: r-integrals over items (q, jp, kp) ----------------------
  // Gather every item's inputs structure-of-arrays, then one recursion pass
  // with the item index innermost writes them striped (item-fastest): the
  // order a quartet-per-thread kernel writes coalesced.
  const std::size_t nitem = nq * kk;
  scratch.r_striped.resize(nht * nitem);
  scratch.r_blocked.resize(scratch.r_striped.size());
  scratch.r_items.resize(5 * nitem);
  double* alpha = scratch.r_items.data();
  double* pqx = alpha + nitem;
  double* pqy = pqx + nitem;
  double* pqz = pqy + nitem;
  double* pref = pqz + nitem;
  const double two_pi_2_5 = 2.0 * std::pow(kPi, 2.5);
  for (std::size_t q = 0; q < nq; ++q) {
    const PairOperand& bo = bra_op(q);
    const PairOperand& ko = ket_op(q);
    for (std::size_t jp = 0; jp < kab; ++jp) {
      const PrimPair& bra = bo.prims[jp];
      for (std::size_t kp = 0; kp < kcd; ++kp) {
        const PrimPair& ket = ko.prims[kp];
        const std::size_t item = (q * kab + jp) * kcd + kp;
        pref[item] = two_pi_2_5 / (bra.p * ket.p * std::sqrt(bra.p + ket.p));
        alpha[item] = bra.p * ket.p / (bra.p + ket.p);
        pqx[item] = bra.center[0] - ket.center[0];
        pqy[item] = bra.center[1] - ket.center[1];
        pqz[item] = bra.center[2] - ket.center[2];
      }
    }
  }
  compute_r_integrals_batch(ltot, nitem, alpha, pqx, pqy, pqz, pref,
                            scratch.r_striped.data(), nitem, scratch.rint);
  stats.scalar_flops += static_cast<double>(nitem) * nht * (ltot + 2) * 4.0;
  stats.global_bytes += 8.0 * nitem * nht;
  stats.kernel_launches += 1;

  // --- Stage 2: layout conversion -----------------------------------------
  // Swizzled in-SMEM transpose vs explicit global transpose (the latter
  // costs an extra kernel + traffic).  Blocked, quartet q's r-integrals are
  // the contiguous [kk x nht] block at q * kk * nht.
  striped_to_blocked(scratch.r_striped.data(), scratch.r_blocked.data(), nht,
                     nitem, config_.use_swizzle);
  if (!config_.use_swizzle) {
    stats.global_bytes += 16.0 * nitem * nht;
    stats.kernel_launches += 1;
  }

  // --- Quantized execution (Section 3.2) ----------------------------------
  // Needs the backend's reduced-precision datapath; on a backend without it
  // both GEMMs run exact FP64 instead.  Scales: static per pair for E'
  // (PairOperand::scale), per quartet for P and T; dequantization happens at
  // the FP32->FP64 widening of each GEMM (dual-stage accumulation).
  const GemmBackend& be = backend();
  const GemmConfig& gc = config_.gemm;
  const bool quant = config_.quantized() && be.capabilities().quantized;
  const bool naive_fp16 = quant && gc.precision == Precision::kFP16 &&
                          !config_.dual_stage_accumulation;
  const bool scaled = quant && config_.group_scaling;
  if (quant && !naive_fp16) {
    scratch.q_ops.resize(mb * nsb + mk * nsk);
    scratch.q_dyn.resize(std::max(pq_size, t_size));
  }
  if (naive_fp16) scratch.e_naive.resize(mb * nsb + mk * nsk);
  scratch.t_one.resize(t_size);

  // Injection site: corrupt one element of a quantized bra operand tile
  // (models a faulty tensor-core operand tile).  The corruption goes into
  // this call's staged copy — never the plan-owned one — and reaches every
  // quartet of the batch that shares the tile's shell pair.
  const PairOperand* corrupt_tile =
      quant && !naive_fp16 && MAKO_FAULT_POINT("kernelmako.quant_e_tile")
          ? &bra_op(0)
          : nullptr;
  // Quantized operand of one quartet: the owner-built copy when present,
  // else rounded into this call's staging slot.
  const auto quantized_operand = [&](const PairOperand& op, float* stage,
                                     bool is_bra) -> const float* {
    const std::vector<float>& owned = op.q[quantized_slot(gc.precision)];
    const bool corrupt = is_bra && &op == corrupt_tile;
    if (scaled && !owned.empty() && !corrupt) return owned.data();
    quantize_pair_operand(op, gc.precision, scaled, stage);
    if (corrupt) {
      FaultInjector::instance().corrupt("kernelmako.quant_e_tile", stage,
                                        op.e.size());
    }
    return stage;
  };

  // Per-quartet P scale: max|P| is max|r| over the quartet's block, since
  // every total-order Hermite index is reachable from some (p~, q~).
  const auto pq_scale = [&](std::size_t q) {
    if (!scaled) return 1.0;
    const double m = max_abs(scratch.r_blocked.data() + q * kk * nht, kk * nht);
    return m > 0.0 ? 1.0 / m : 1.0;
  };

  // P[(jp,hp),(kp,hq)] = s * (-1)^{|q~|} R^{jp,kp}_{p~+q~} (Eq. 6).
  const auto assemble_pq = [&](std::size_t q, double s, double* pq) {
    const double* rq = scratch.r_blocked.data() + q * kk * nht;
    for (std::size_t jp = 0; jp < kab; ++jp) {
      for (std::size_t hp = 0; hp < nhb; ++hp) {
        const int* comb = plan.combined.data() + hp * nhk;
        double* row = pq + (jp * nhb + hp) * mk;
        for (std::size_t kp = 0; kp < kcd; ++kp) {
          const double* r = rq + (jp * kcd + kp) * nht;
          double* dst = row + kp * nhk;
          for (std::size_t hq = 0; hq < nhk; ++hq) {
            dst[hq] = s * plan.sign_cd[hq] * r[comb[hq]];
          }
        }
      }
    }
  };

  // Scales T in place by 1 / max|T| (quantized runs only); returns the scale.
  const auto scale_t = [&](double* t) {
    if (!scaled) return 1.0;
    const double m = max_abs(t, t_size);
    const double s = m > 0.0 ? 1.0 / m : 1.0;
    for (std::size_t i = 0; i < t_size; ++i) t[i] *= s;
    return s;
  };

  // The two GEMMs of one quartet (Eq. 7 with the primitive sums inside the
  // reduction):  T = E'_AB^T x P,  out = T x E'_CD.  E'_AB enters through
  // the packed kernel's native transpose (no copies).  Destinations are
  // zeroed first so beta = 0 never reads stale (possibly non-finite) data.
  const auto transform = [&](std::size_t q, const double* pq, double s_pq) {
    const PairOperand& bo = bra_op(q);
    const PairOperand& ko = ket_op(q);
    const double s_bra = scaled ? bo.scale : 1.0;
    const double s_ket = scaled ? ko.scale : 1.0;
    double* t = scratch.t_one.data();
    std::fill(t, t + t_size, 0.0);
    out[q].assign(out_size, 0.0);
    double* o = out[q].data();
    if (naive_fp16) {
      double* eb = scratch.e_naive.data();
      double* ek = eb + mb * nsb;
      for (std::size_t i = 0; i < mb * nsb; ++i) eb[i] = s_bra * bo.e[i];
      for (std::size_t i = 0; i < mk * nsk; ++i) ek[i] = s_ket * ko.e[i];
      be.fp16_baseline(eb, pq, t, nsb, mk, mb, 1.0 / (s_bra * s_pq), 0.0,
                       /*trans_a=*/true);
      const double s_t = scale_t(t);
      be.fp16_baseline(t, ek, o, nsb, nsk, mk, 1.0 / (s_t * s_ket), 0.0);
    } else if (quant) {
      const float* qb = quantized_operand(bo, scratch.q_ops.data(), true);
      const float* qk =
          quantized_operand(ko, scratch.q_ops.data() + mb * nsb, false);
      quantize_to_float(pq, scratch.q_dyn.data(), pq_size, gc.precision);
      be.mixed(qb, /*trans_a=*/true, scratch.q_dyn.data(), false, t, nsb, mk,
               mb, 1.0 / (s_bra * s_pq), 0.0);
      const double s_t = scale_t(t);
      quantize_to_float(t, scratch.q_dyn.data(), t_size, gc.precision);
      be.mixed(scratch.q_dyn.data(), false, qk, false, o, nsb, nsk, mk,
               1.0 / (s_t * s_ket), 0.0);
    } else {
      be.fp64(bo.e.data(), /*trans_a=*/true, pq, false, t, nsb, mk, mb);
      be.fp64(t, false, ko.e.data(), false, o, nsb, nsk, mk);
    }
    stats.gemm_flops += gemm_flops(nsb, mk, mb) + gemm_flops(nsb, nsk, mk);
  };

  // --- Stages 3-4: P assembly and the two GEMMs ---------------------------
  const double bpe = static_cast<double>(bytes_per_element(gc.precision));
  if (config_.fuse_gemms) {
    // Coalesced (Eq. 11): each quartet's P feeds GEMM1 and T feeds GEMM2
    // while the tiles are hot — one kernel, no intermediate traffic.
    scratch.pq_one.resize(pq_size);
    for (std::size_t q = 0; q < nq; ++q) {
      const double s = pq_scale(q);
      assemble_pq(q, s, scratch.pq_one.data());
      transform(q, scratch.pq_one.data(), s);
    }
    stats.kernel_launches += 1;
  } else {
    // Unfused: one kernel stages every quartet's P in global memory, then
    // GEMM1 and GEMM2 run as separate kernels with T round-tripping too.
    scratch.pq_all.resize(nq * pq_size);
    for (std::size_t q = 0; q < nq; ++q) {
      assemble_pq(q, pq_scale(q), scratch.pq_all.data() + q * pq_size);
    }
    for (std::size_t q = 0; q < nq; ++q) {
      transform(q, scratch.pq_all.data() + q * pq_size, pq_scale(q));
    }
    stats.global_bytes += 2.0 * bpe * nq * (pq_size + t_size);
    stats.kernel_launches += 3;
  }
  stats.scalar_flops += 2.0 * nq * kk * nhb * nhk;
  stats.global_bytes +=
      bpe * nq * (mb * nsb + mk * nsk) + 8.0 * nq * out_size;

  stats.wall_seconds = timer.seconds();
  MAKO_METRIC_OBSERVE("kernel.batch_s", stats.wall_seconds);
  return stats;
}

}  // namespace mako
