// AI-accelerator device model.
//
// Substitutes for the physical A100 in this environment: it carries the
// roofline parameters of the paper's device (memory bandwidth, launch
// latency, per-precision peak throughput from Table 1 of the paper) and an
// analytic roofline that converts kernel work into modeled execution time.
// The benchmark harnesses report modeled device times next to measured host
// times; nothing in src/ reads the model.
#pragma once

#include "util/precision.hpp"

namespace mako {

/// Roofline description of an accelerator.
struct DeviceSpec {
  double hbm_bandwidth_bps = 1.555e12;  ///< 1555 GB/s
  double kernel_launch_latency_s = 4e-6;

  // Peak throughput in FLOP/s (Table 1 of the paper).
  double tensor_fp64_flops = 19.5e12;
  double tensor_tf32_flops = 156e12;
  double tensor_fp16_flops = 312e12;
  double cuda_fp64_flops = 9.7e12;
  double cuda_fp32_flops = 19.5e12;
  double cuda_fp16_flops = 78e12;

  /// Tensor-core peak for a precision mode.
  [[nodiscard]] double tensor_peak(Precision p) const noexcept;
  /// CUDA-core (general-purpose) peak for a precision mode.
  [[nodiscard]] double cuda_peak(Precision p) const noexcept;

  /// The paper's device (Table 1).
  static DeviceSpec a100();
};

/// Work description of one kernel invocation.
struct KernelWork {
  double matmul_flops = 0.0;      ///< FLOPs executed on tensor cores
  double scalar_flops = 0.0;      ///< FLOPs on general-purpose cores
  double global_bytes = 0.0;      ///< DRAM traffic (read + write)
  int kernel_launches = 1;        ///< number of device kernel launches
  Precision precision = Precision::kFP64;
};

/// Roofline estimate of kernel time on the device: compute and memory phases
/// overlap (max), launches serialize (sum).
double modeled_kernel_seconds(const DeviceSpec& device, const KernelWork& work);

}  // namespace mako
