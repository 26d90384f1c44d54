// [Figure 7a/7b] Ablation study.
//
// 7a: throughput of the baseline batched implementation (no fusion, no
//     swizzle) -> +KernelMako (fusion + swizzle).  The paper reports an
//     average 3.98x overall gain on A100 including a third, +CompilerMako
//     step (architecture-tuned tiles/ILP); the host runs one packed GEMM
//     kernel with no per-class tile or ILP choice, so that step has no host
//     counterpart and is not timed.
// 7b: QuantMako (FP16 group-scaled kernels) speedup over the FP64 kernels.
//     The paper reports an average 4.8x on A100 tensor cores; on the host,
//     where FP16 has no dedicated units, we report both the measured CPU
//     time and the modeled A100 time from each run's work counters.
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
                   const KernelConfig& config, BatchStats& stats) {
  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets), out);
  Timer t;
  stats = engine.compute_batch(
      key, std::span<const QuartetRef>(batch.quartets), out);
  return t.seconds();
}

/// Modeled A100 time of the measured work, amortized to a production batch
/// of `production` quartets: work scales with the batch, kernel launches do
/// not (one launch covers the whole batch on the device).
double modeled_production_seconds(const DeviceSpec& device,
                                  const BatchStats& stats, std::size_t nq,
                                  Precision precision,
                                  std::size_t production = 2048) {
  KernelWork w = stats.work(precision);
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

  std::printf("[Figure 7a] Ablation: baseline -> +KernelMako\n");
  std::printf("%-18s %12s %14s %10s %12s\n", "ERI class", "baseline ms",
              "+KernelMako ms", "host", "modeled-A100");
  double geo = 1.0, geo_dev = 1.0;
  for (const EriClassKey& key : classes) {
    const std::size_t nq = key.ltot() >= 12 ? 6 : 24;
    const CalibrationBatch batch = make_calibration_batch(key, nq, 3);

    KernelConfig baseline;
    baseline.fuse_gemms = false;
    baseline.use_swizzle = false;
    BatchStats s0;
    const double t0 = time_config(key, batch, baseline, s0);

    const KernelConfig kernelmako;  // fusion + swizzle
    BatchStats s1;
    const double t1 = time_config(key, batch, kernelmako, s1);

    // Modeled device ratio: the unfused baseline pays its extra kernel
    // launches and global traffic on every primitive-pair step.
    const double d0 =
        modeled_production_seconds(a100, s0, nq, Precision::kFP64);
    const double d1 =
        modeled_production_seconds(a100, s1, nq, Precision::kFP64);

    std::printf("%-18s %12.3f %14.3f %9.2fx %11.2fx\n", key.name().c_str(),
                t0 * 1e3, t1 * 1e3, t0 / t1, d0 / d1);
    geo *= t0 / t1;
    geo_dev *= d0 / d1;
  }
  std::printf("geometric means: host %.2fx, modeled A100 %.2fx (paper: "
              "3.98x with +CompilerMako)\n",
              std::pow(geo, 1.0 / classes.size()),
              std::pow(geo_dev, 1.0 / classes.size()));

  std::printf("\n[Figure 7b] QuantMako speedup over FP64 kernels\n");
  std::printf("%-18s %12s %12s %12s %18s\n", "ERI class", "FP64 ms",
              "Quant ms", "host ratio", "modeled A100 ratio");
  double geo_host = 1.0, geo_dev16 = 1.0;
  for (const EriClassKey& key : classes) {
    const std::size_t nq = key.ltot() >= 12 ? 6 : 24;
    const CalibrationBatch batch = make_calibration_batch(key, nq, 3);

    KernelConfig fp64;
    BatchStats s64;
    const double t64 = time_config(key, batch, fp64, s64);

    KernelConfig quant = fp64;
    quant.gemm.precision = Precision::kFP16;
    BatchStats s16;
    const double t16 = time_config(key, batch, quant, s16);

    // Modeled device times: same work at production batch size, served by
    // the per-precision tensor peaks.
    const double dev64 =
        modeled_production_seconds(a100, s64, nq, Precision::kFP64);
    const double dev16 =
        modeled_production_seconds(a100, s16, nq, Precision::kFP16);

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
