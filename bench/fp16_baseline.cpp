#include "fp16_baseline.hpp"

#include <algorithm>
#include <cmath>

#include "integrals/hermite.hpp"
#include "util/precision.hpp"

namespace mako {

void gemm_fp16_naive(const double* a, const double* b, double* c,
                     std::size_t m, std::size_t n, std::size_t k, double alpha,
                     double beta, bool trans_a) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      half_t acc(0.0f);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = trans_a ? a[kk * m + i] : a[i * k + kk];
        const float qa = half_t(static_cast<float>(av)).to_float();
        const float qb = half_t(static_cast<float>(b[kk * n + j])).to_float();
        acc = half_t(acc.to_float() + qa * qb);
      }
      c[i * n + j] = beta * c[i * n + j] +
                     alpha * static_cast<double>(acc.to_float());
    }
  }
}

void baseline_fp16_batch(const EriClassKey& key,
                         std::span<const QuartetRef> batch,
                         std::vector<std::vector<double>>& out) {
  const EriClassPlan& plan = EriClassPlan::get(key);
  const std::size_t nhb = static_cast<std::size_t>(plan.nhb);
  const std::size_t nhk = static_cast<std::size_t>(plan.nhk);
  const std::size_t nht = static_cast<std::size_t>(plan.nht);
  const std::size_t nsb = static_cast<std::size_t>(plan.nsb);
  const std::size_t nsk = static_cast<std::size_t>(plan.nsk);
  const std::size_t kab = static_cast<std::size_t>(key.kab);
  const std::size_t kcd = static_cast<std::size_t>(key.kcd);
  const std::size_t kk = kab * kcd;
  const std::size_t mb = kab * nhb;
  const std::size_t mk = kcd * nhk;

  PairOperand bra, ket;
  RIntegralWorkspace ws;
  std::vector<double> alpha(kk), pqx(kk), pqy(kk), pqz(kk), pref(kk);
  std::vector<double> r(kk * nht), pq(mb * mk), t(nsb * mk);
  const double two_pi_2_5 = 2.0 * std::pow(3.14159265358979323846, 2.5);
  out.resize(batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const QuartetRef& ref = batch[q];
    build_pair_operand(*ref.a, *ref.b, *plan.sph_bra, bra);
    build_pair_operand(*ref.c, *ref.d, *plan.sph_ket, ket);
    for (std::size_t jp = 0; jp < kab; ++jp) {
      const PrimPair& b = bra.prims[jp];
      for (std::size_t kp = 0; kp < kcd; ++kp) {
        const PrimPair& k = ket.prims[kp];
        const std::size_t item = jp * kcd + kp;
        pref[item] = two_pi_2_5 / (b.p * k.p * std::sqrt(b.p + k.p));
        alpha[item] = b.p * k.p / (b.p + k.p);
        pqx[item] = b.center[0] - k.center[0];
        pqy[item] = b.center[1] - k.center[1];
        pqz[item] = b.center[2] - k.center[2];
      }
    }
    compute_r_integrals_batch(plan.ltot, kk, alpha.data(), pqx.data(),
                              pqy.data(), pqz.data(), pref.data(), r.data(),
                              nht, ws);
    // P[(jp,hp),(kp,hq)] = (-1)^{|q~|} R^{jp,kp}_{p~+q~} (Eq. 6), unscaled.
    for (std::size_t jp = 0; jp < kab; ++jp) {
      for (std::size_t hp = 0; hp < nhb; ++hp) {
        const int* comb = plan.combined.data() + hp * nhk;
        for (std::size_t kp = 0; kp < kcd; ++kp) {
          const double* rj = r.data() + (jp * kcd + kp) * nht;
          double* dst = pq.data() + (jp * nhb + hp) * mk + kp * nhk;
          for (std::size_t hq = 0; hq < nhk; ++hq) {
            dst[hq] = plan.sign_cd[hq] * rj[comb[hq]];
          }
        }
      }
    }
    std::fill(t.begin(), t.end(), 0.0);
    out[q].assign(nsb * nsk, 0.0);
    gemm_fp16_naive(bra.e.data(), pq.data(), t.data(), nsb, mk, mb, 1.0, 0.0,
                    /*trans_a=*/true);
    gemm_fp16_naive(t.data(), ket.e.data(), out[q].data(), nsb, nsk, mk, 1.0,
                    0.0);
  }
}

}  // namespace mako
