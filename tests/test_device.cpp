// Device model tests: Table-1 throughput ratios and roofline behaviour.
#include <gtest/gtest.h>

#include "accel/device.hpp"

namespace mako {
namespace {

TEST(DeviceSpecTest, Table1Ratios) {
  const DeviceSpec a100 = DeviceSpec::a100();
  // FP64: tensor 19.5 vs CUDA 9.7 -> ~2x.
  EXPECT_NEAR(a100.tensor_peak(Precision::kFP64) /
                  a100.cuda_peak(Precision::kFP64),
              2.0, 0.05);
  // TF32: 156 vs 19.5 -> 8x.
  EXPECT_NEAR(a100.tensor_peak(Precision::kTF32) /
                  a100.cuda_peak(Precision::kFP32),
              8.0, 0.05);
  // FP16: 312 vs 78 -> 4x.
  EXPECT_NEAR(a100.tensor_peak(Precision::kFP16) /
                  a100.cuda_peak(Precision::kFP16),
              4.0, 0.05);
}

TEST(DeviceSpecTest, Fp16TensorIs16xFp64Tensor) {
  const DeviceSpec a100 = DeviceSpec::a100();
  EXPECT_NEAR(a100.tensor_peak(Precision::kFP16) /
                  a100.tensor_peak(Precision::kFP64),
              16.0, 0.1);
}

TEST(KernelModelTest, ComputeBoundScalesWithFlops) {
  const DeviceSpec dev = DeviceSpec::a100();
  KernelWork w;
  w.matmul_flops = 1e12;
  w.kernel_launches = 0;
  const double t1 = modeled_kernel_seconds(dev, w);
  w.matmul_flops = 2e12;
  EXPECT_NEAR(modeled_kernel_seconds(dev, w) / t1, 2.0, 1e-9);
}

TEST(KernelModelTest, MemoryBoundDominatedByBandwidth) {
  const DeviceSpec dev = DeviceSpec::a100();
  KernelWork w;
  w.matmul_flops = 1.0;  // negligible
  w.global_bytes = 1.555e12;  // exactly one second of HBM traffic
  w.kernel_launches = 0;
  EXPECT_NEAR(modeled_kernel_seconds(dev, w), 1.0, 1e-6);
}

TEST(KernelModelTest, LaunchLatencyAdds) {
  const DeviceSpec dev = DeviceSpec::a100();
  KernelWork w;
  w.kernel_launches = 100;
  EXPECT_NEAR(modeled_kernel_seconds(dev, w),
              100 * dev.kernel_launch_latency_s, 1e-12);
}

TEST(KernelModelTest, LowerPrecisionIsFaster) {
  const DeviceSpec dev = DeviceSpec::a100();
  KernelWork w;
  w.matmul_flops = 1e13;
  w.kernel_launches = 0;
  w.precision = Precision::kFP64;
  const double t64 = modeled_kernel_seconds(dev, w);
  w.precision = Precision::kFP16;
  const double t16 = modeled_kernel_seconds(dev, w);
  EXPECT_NEAR(t64 / t16, 16.0, 0.1);
}

}  // namespace
}  // namespace mako
