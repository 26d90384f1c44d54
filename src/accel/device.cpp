#include "accel/device.hpp"

#include <algorithm>

namespace mako {

double DeviceSpec::tensor_peak(Precision p) const noexcept {
  switch (p) {
    case Precision::kFP64:
      return tensor_fp64_flops;
    case Precision::kFP32:
    case Precision::kTF32:
      return tensor_tf32_flops;
    case Precision::kFP16:
      return tensor_fp16_flops;
  }
  return tensor_fp64_flops;
}

double DeviceSpec::cuda_peak(Precision p) const noexcept {
  switch (p) {
    case Precision::kFP64:
      return cuda_fp64_flops;
    case Precision::kFP32:
    case Precision::kTF32:
      return cuda_fp32_flops;
    case Precision::kFP16:
      return cuda_fp16_flops;
  }
  return cuda_fp64_flops;
}

DeviceSpec DeviceSpec::a100() { return DeviceSpec{}; }

double modeled_kernel_seconds(const DeviceSpec& device,
                              const KernelWork& work) {
  const double tc = work.matmul_flops / device.tensor_peak(work.precision);
  const double cc = work.scalar_flops / device.cuda_peak(work.precision);
  const double mem = work.global_bytes / device.hbm_bandwidth_bps;
  const double compute = tc + cc;
  return std::max(compute, mem) +
         work.kernel_launches * device.kernel_launch_latency_s;
}

}  // namespace mako
