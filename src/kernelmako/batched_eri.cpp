#include "kernelmako/batched_eri.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "basis/spherical.hpp"
#include "integrals/hermite.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault_injector.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

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
  // with the item index innermost writes each item's nht r-integrals as one
  // row: quartet q's block is the contiguous [kk x nht] run at q * kk * nht,
  // the layout P assembly reads.
  const std::size_t nitem = nq * kk;
  scratch.r_blocked.resize(nht * nitem);
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
                            scratch.r_blocked.data(), nht, scratch.rint);

  // --- Quantized execution (Section 3.2) ----------------------------------
  // Scales: static per pair for E' (PairOperand::scale), per quartet for P
  // and T; dequantization happens at the FP32->FP64 widening of each GEMM
  // (dual-stage accumulation).
  const GemmBackend& be = GemmBackend::instance();
  const GemmConfig& gc = config_.gemm;
  const bool quant = config_.quantized();
  if (quant) {
    scratch.q_ops.resize(mb * nsb + mk * nsk);
    scratch.q_dyn.resize(std::max(pq_size, t_size));
  } else {
    scratch.pq_one.resize(pq_size);
  }
  scratch.t_one.resize(t_size);

  // Injection site: corrupt one element of a quantized bra operand tile
  // (models a faulty tensor-core operand tile).  The corruption goes into
  // this call's staged copy — never the plan-owned one — and reaches every
  // quartet of the batch that shares the tile's shell pair.
  const PairOperand* corrupt_tile =
      quant && MAKO_FAULT_POINT("kernelmako.quant_e_tile") ? &bra_op(0)
                                                           : nullptr;
  // Quantized operand of one quartet: the owner-built copy when present,
  // else rounded into this call's staging slot.
  const auto quantized_operand = [&](const PairOperand& op, float* stage,
                                     bool is_bra) -> const float* {
    const std::vector<float>& owned = op.q[quantized_slot(gc.precision)];
    const bool corrupt = is_bra && &op == corrupt_tile;
    if (!owned.empty() && !corrupt) return owned.data();
    quantize_pair_operand(op, gc.precision, stage);
    if (corrupt) {
      FaultInjector::instance().corrupt("kernelmako.quant_e_tile", stage,
                                        op.e.size());
    }
    return stage;
  };

  // --- Stages 2-3: P assembly and the two GEMMs, per quartet --------------
  // Coalesced (Eq. 11): each quartet's P feeds GEMM1 and T feeds GEMM2
  // while the tiles are hot.  Destinations are zeroed first so beta = 0
  // never reads stale (possibly non-finite) data.
  //
  // P[(jp,hp),(kp,hq)] = s * (-1)^{|q~|} R^{jp,kp}_{p~+q~} (Eq. 6), formed
  // in double and stored as T_P: on the quantized route that is float, and
  // the rounding through the GEMM precision follows in one vector pass, so
  // no FP64 P exists there.
  const auto assemble_p = [&](const double* rq, double s, auto* dst) {
    using T_P = std::remove_pointer_t<decltype(dst)>;
    for (std::size_t jp = 0; jp < kab; ++jp) {
      for (std::size_t hp = 0; hp < nhb; ++hp) {
        const int* comb = plan.combined.data() + hp * nhk;
        T_P* row = dst + (jp * nhb + hp) * mk;
        for (std::size_t kp = 0; kp < kcd; ++kp) {
          const double* r = rq + (jp * kcd + kp) * nht;
          T_P* d = row + kp * nhk;
          for (std::size_t hq = 0; hq < nhk; ++hq) {
            d[hq] = static_cast<T_P>(s * plan.sign_cd[hq] * r[comb[hq]]);
          }
        }
      }
    }
  };
  double* t = scratch.t_one.data();
  for (std::size_t q = 0; q < nq; ++q) {
    const double* rq = scratch.r_blocked.data() + q * kk * nht;
    // T = E'_AB^T x P,  out = T x E'_CD.  E'_AB enters through the packed
    // kernel's native transpose (no copies).
    const PairOperand& bo = bra_op(q);
    const PairOperand& ko = ket_op(q);
    std::fill(t, t + t_size, 0.0);
    out[q].assign(out_size, 0.0);
    double* o = out[q].data();
    if (quant) {
      // Per-quartet P scale: max|P| is max|r| over the quartet's block,
      // since every total-order Hermite index is reachable from some
      // (p~, q~).
      const double r_max = max_abs(rq, kk * nht);
      const double s_pq = r_max > 0.0 ? 1.0 / r_max : 1.0;
      float* qp = scratch.q_dyn.data();
      assemble_p(rq, s_pq, qp);
      quantize_in_place(qp, pq_size, gc.precision);
      const float* qb = quantized_operand(bo, scratch.q_ops.data(), true);
      const float* qk =
          quantized_operand(ko, scratch.q_ops.data() + mb * nsb, false);
      // GEMM1 returns max|T|; T is scaled by its inverse as it is rounded.
      const double t_max = be.mixed(qb, /*trans_a=*/true, qp, false, t, nsb,
                                    mk, mb, 1.0 / (bo.scale * s_pq), 0.0);
      const double s_t = t_max > 0.0 ? 1.0 / t_max : 1.0;
      quantize_to_float(t, scratch.q_dyn.data(), t_size, gc.precision, s_t);
      be.mixed(scratch.q_dyn.data(), false, qk, false, o, nsb, nsk, mk,
               1.0 / (s_t * ko.scale), 0.0);
    } else {
      double* pq = scratch.pq_one.data();
      assemble_p(rq, 1.0, pq);
      be.fp64(bo.e.data(), /*trans_a=*/true, pq, false, t, nsb, mk, mb);
      be.fp64(t, false, ko.e.data(), false, o, nsb, nsk, mk);
    }
    stats.gemm_flops += gemm_flops(nsb, mk, mb) + gemm_flops(nsb, nsk, mk);
  }

  stats.wall_seconds = timer.seconds();
  MAKO_METRIC_OBSERVE("kernel.batch_s", stats.wall_seconds);
  return stats;
}

}  // namespace mako
