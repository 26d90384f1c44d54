// [Table 1] A100 per-precision throughput.
//
// Reproduces the structure of Table 1: peak throughput per precision for
// tensor cores vs general-purpose cores, and the tensor-core speedup column.
// Two views are reported: (1) the device model's A100 figures (the paper's
// numbers), and (2) measured host GEMM throughput of this build's
// micro-kernels at each emulated precision, which is what the CPU
// substitution actually executes.
#include <cstdio>
#include <vector>

#include "accel/device.hpp"
#include "linalg/backend.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

double measure_gflops(mako::Precision precision) {
  using namespace mako;
  const GemmBackend& be = GemmBackend::instance();
  const std::size_t n = 192;
  Rng rng(1);
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);

  // One GEMM at `precision`: FP64 directly, otherwise operands rounded
  // through the format on every call, then the FP32-accumulating path.
  std::vector<float> qa(n * n), qb(n * n);
  const auto run = [&] {
    if (precision == Precision::kFP64) {
      be.fp64(a.data(), false, b.data(), false, c.data(), n, n, n);
      return;
    }
    quantize_to_float(a.data(), qa.data(), n * n, precision);
    quantize_to_float(b.data(), qb.data(), n * n, precision);
    be.mixed(qa.data(), false, qb.data(), false, c.data(), n, n, n, 1.0, 0.0);
  };

  // Warm up, then time a few repetitions.
  run();
  const int reps = 6;
  Timer t;
  for (int r = 0; r < reps; ++r) run();
  const double seconds = t.seconds() / reps;
  return gemm_flops(n, n, n) / seconds / 1e9;
}

}  // namespace

int main() {
  using namespace mako;
  const DeviceSpec a100 = DeviceSpec::a100();

  std::printf("[Table 1] A100 GPU specifications (device model)\n");
  std::printf("%-10s %14s %14s %9s\n", "Precision", "Tensor Core",
              "CUDA Core", "Speedup");
  struct Row {
    const char* name;
    double tensor, cuda;
  };
  const Row rows[] = {
      {"FP64", a100.tensor_fp64_flops, a100.cuda_fp64_flops},
      {"FP32/TF32", a100.tensor_tf32_flops, a100.cuda_fp32_flops},
      {"FP16", a100.tensor_fp16_flops, a100.cuda_fp16_flops},
  };
  for (const Row& r : rows) {
    std::printf("%-10s %10.1f TF  %10.1f TF  %7.1fx\n", r.name, r.tensor / 1e12,
                r.cuda / 1e12, r.tensor / r.cuda);
  }

  std::printf("\nMeasured host micro-kernel throughput (192^3 GEMM, this "
              "machine)\n");
  std::printf("%-10s %14s %22s\n", "Precision", "GFLOP/s",
              "speedup vs FP64 path");
  const double g64 = measure_gflops(Precision::kFP64);
  for (Precision p : {Precision::kFP64, Precision::kFP32, Precision::kTF32,
                      Precision::kFP16}) {
    const double g = (p == Precision::kFP64) ? g64 : measure_gflops(p);
    std::printf("%-10s %14.2f %21.2fx\n", to_string(p), g, g / g64);
  }

  std::printf("\nModeled A100 kernel time for a 1 GFLOP MatMul workload\n");
  for (Precision p : {Precision::kFP64, Precision::kTF32, Precision::kFP16}) {
    KernelWork w;
    w.matmul_flops = 1e9;
    w.precision = p;
    std::printf("  %-6s %.3f us\n", to_string(p),
                modeled_kernel_seconds(a100, w) * 1e6);
  }
  return 0;
}
