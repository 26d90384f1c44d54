// [Figure 7a/7b] Ablation study.
//
// 7a: modeled A100 gain of KernelMako (fusion + swizzle) over the baseline
//     batched implementation (no fusion, no swizzle).  The paper reports an
//     average 3.98x overall gain on A100 including a third, +CompilerMako
//     step (architecture-tuned tiles/ILP).  The baseline's extra cost is GPU
//     memory traffic and kernel launches, which the host does not have: the
//     engine runs only the fused kernel and writes its r-integrals blocked,
//     so both variants are modeled here, in closed form from the class
//     dimensions, and not timed.
// 7b: QuantMako (FP16 group-scaled kernels) speedup over the FP64 kernels.
//     The paper reports an average 4.8x on A100 tensor cores; on the host,
//     where FP16 has no dedicated units, we report both the measured CPU
//     time and the modeled A100 time of the same work.
#include <cmath>
#include <cstdio>
#include <vector>

#include "accel/device.hpp"
#include "compilermako/registry.hpp"
#include "kernelmako/batched_eri.hpp"
#include "util/timer.hpp"

namespace {
using namespace mako;

double time_config(const EriClassKey& key, const CalibrationBatch& batch,
                   const KernelConfig& config) {
  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets), out);
  Timer t;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets), out);
  return t.seconds();
}

/// Device work of one batch of `nq` quartets of a class at precision `p`.
/// Fused is KernelMako: the r-integral kernel writes its rows blocked, and
/// one kernel runs every quartet's P -> GEMM1 -> GEMM2 with P and T kept
/// on chip.  Unfused is the baseline: the r-integrals are written striped
/// and transposed by a kernel of their own through global memory, and P
/// assembly, GEMM1 and GEMM2 are three kernels with P and T round-tripping
/// through global memory.
KernelWork batch_work(const EriClassKey& key, std::size_t nq, Precision p,
                      bool fused) {
  const EriClassPlan& plan = EriClassPlan::get(key);
  const double n = static_cast<double>(nq);
  const double kk = static_cast<double>(key.kab) * key.kcd;
  const double nitem = n * kk;
  const std::size_t mb = static_cast<std::size_t>(key.kab * plan.nhb);
  const std::size_t mk = static_cast<std::size_t>(key.kcd * plan.nhk);
  const std::size_t nsb = static_cast<std::size_t>(plan.nsb);
  const std::size_t nsk = static_cast<std::size_t>(plan.nsk);
  const double bpe = static_cast<double>(bytes_per_element(p));

  KernelWork w;
  w.precision = p;
  w.matmul_flops = n * (gemm_flops(nsb, mk, mb) + gemm_flops(nsb, nsk, mk));
  w.scalar_flops = nitem * plan.nht * (plan.ltot + 2) * 4.0 +
                   2.0 * n * kk * plan.nhb * plan.nhk;
  // r-integrals written once, operands read, quartets written.
  w.global_bytes = 8.0 * nitem * plan.nht +
                   bpe * n * static_cast<double>(mb * nsb + mk * nsk) +
                   8.0 * n * static_cast<double>(nsb * nsk);
  w.kernel_launches = 2;  // r-integrals, fused P/GEMM kernel
  if (!fused) {
    // Transpose read + write, and P and T each stored then loaded.
    w.global_bytes += 16.0 * nitem * plan.nht +
                      2.0 * bpe * n * static_cast<double>(mb * mk + nsb * mk);
    w.kernel_launches = 5;  // + transpose, P assembly, GEMM1, GEMM2 apart
  }
  return w;
}

/// Modeled A100 time of a batch's work, amortized to a production batch of
/// `production` quartets: work scales with the batch, kernel launches do
/// not (one launch covers the whole batch on the device).
double modeled_production_seconds(const DeviceSpec& device, KernelWork w,
                                  std::size_t nq,
                                  std::size_t production = 2048) {
  const double scale = static_cast<double>(production) / nq;
  w.matmul_flops *= scale;
  w.scalar_flops *= scale;
  w.global_bytes *= scale;
  return modeled_kernel_seconds(device, w);
}

}  // namespace

int main() {
  const DeviceSpec a100 = DeviceSpec::a100();
  const std::vector<EriClassKey> classes = {
      {1, 1, 1, 1, 4, 4}, {2, 2, 2, 2, 1, 1}, {3, 3, 3, 3, 1, 1},
      {4, 4, 4, 4, 1, 1}, {2, 1, 2, 1, 2, 2},
  };

  std::printf("[Figure 7a] Ablation: baseline -> +KernelMako (modeled)\n");
  std::printf("%-18s %12s\n", "ERI class", "modeled-A100");
  double geo_dev = 1.0;
  for (const EriClassKey& key : classes) {
    const std::size_t nq = key.ltot() >= 12 ? 6 : 24;
    // The unfused baseline pays its extra kernel launches and global
    // traffic on every primitive-pair step.
    const double d0 = modeled_production_seconds(
        a100, batch_work(key, nq, Precision::kFP64, false), nq);
    const double d1 = modeled_production_seconds(
        a100, batch_work(key, nq, Precision::kFP64, true), nq);
    std::printf("%-18s %11.2fx\n", key.name().c_str(), d0 / d1);
    geo_dev *= d0 / d1;
  }
  std::printf("geometric mean: modeled A100 %.2fx (paper: 3.98x with "
              "+CompilerMako)\n",
              std::pow(geo_dev, 1.0 / classes.size()));

  std::printf("\n[Figure 7b] QuantMako speedup over FP64 kernels\n");
  std::printf("%-18s %12s %12s %12s %18s\n", "ERI class", "FP64 ms",
              "Quant ms", "host ratio", "modeled A100 ratio");
  double geo_host = 1.0, geo_dev16 = 1.0;
  for (const EriClassKey& key : classes) {
    const std::size_t nq = key.ltot() >= 12 ? 6 : 24;
    const CalibrationBatch batch = make_calibration_batch(key, nq, 3);

    KernelConfig fp64;
    const double t64 = time_config(key, batch, fp64);
    KernelConfig quant = fp64;
    quant.gemm.precision = Precision::kFP16;
    const double t16 = time_config(key, batch, quant);

    // Modeled device times: same work at production batch size, served by
    // the per-precision tensor peaks.
    const double dev64 = modeled_production_seconds(
        a100, batch_work(key, nq, Precision::kFP64, true), nq);
    const double dev16 = modeled_production_seconds(
        a100, batch_work(key, nq, Precision::kFP16, true), nq);

    std::printf("%-18s %12.3f %12.3f %11.2fx %17.2fx\n", key.name().c_str(),
                t64 * 1e3, t16 * 1e3, t64 / t16, dev64 / dev16);
    geo_host *= t64 / t16;
    geo_dev16 *= dev64 / dev16;
  }
  std::printf("geometric means: host %.2fx, modeled A100 %.2fx (paper: 4.8x "
              "on real tensor cores)\n",
              std::pow(geo_host, 1.0 / classes.size()),
              std::pow(geo_dev16, 1.0 / classes.size()));
  return 0;
}
