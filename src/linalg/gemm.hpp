// Multi-precision GEMM kernels, private to src/linalg/.
//
// This is the host-side analogue of the CUTLASS kernels Mako instantiates on
// GPUs: one BLIS-style kernel in which operands are packed into MR/NR panels
// (the host counterpart of shared-memory staging) and a register-resident
// MR x NR micro-kernel keeps the C fragment out of memory for the whole K
// loop.  L1-resident problems skip the packing and run the same register
// blocking directly on the operands (under AVX-512F so do FP64 problems of
// one k block with alpha = 1, whose packed run has the same order).  Under
// AVX-512F the FP32 GEMMs of the quantized route run a 4x16 register tile
// on the operands in place.
//
// Precision behaviour mirrors tensor cores: FP16 and TF32 operands are
// rounded with round-to-nearest-even on entry and all products are
// accumulated in FP32 (the MMA contract), reproducing hardware numerics
// bit-for-bit up to FMA contraction.
//
// NOTE: this header is private to src/linalg/.  Everything else routes GEMMs
// through GemmBackend in linalg/backend.hpp (which also owns GemmConfig and
// the Matrix matmul wrappers); a grep check in scripts/check_gemm_includes.sh
// enforces the boundary.
#pragma once

#include <cstddef>

#include "linalg/backend.hpp"
#include "util/precision.hpp"

namespace mako {

// --- Raw pointer kernels (row-major, C = alpha*op(A)*op(B) + beta*C) --------

/// FP64 GEMM with native operand transposes: C = alpha*op(A)*op(B) + beta*C
/// where op(X) = X or X^T.  Operands are dense row-major as stored, i.e. A is
/// [KxM] when trans_a and [MxK] otherwise.  The transpose is absorbed by the
/// packing stage — no materialized transpose copy is ever made.
void gemm_fp64_ex(const double* a, bool trans_a, const double* b, bool trans_b,
                  double* c, std::size_t m, std::size_t n, std::size_t k,
                  double alpha = 1.0, double beta = 0.0);

/// Quantized GEMM over operands already rounded through the target precision
/// (see quantize_to_float): multiplies at FP32, accumulates at FP32, and
/// widens alpha*(op(A)*op(B)) into the FP64 destination (dual-stage
/// accumulation).  This is the reuse-aware path: invariant operands are
/// quantized once instead of once per GEMM call.  Returns max |C| over the
/// result (NaNs skipped), taken during the widening.
///
/// Each element's FP32 sum runs over k in order; problems that are not
/// L1-resident restart it every kBlockK and add the partial sums in order.
/// Under AVX-512F a 16-lane kernel keeps that order (B transposed aside),
/// so results do not depend on the build's vector width.
double gemm_quantized_ops(const float* qa, bool trans_a, const float* qb,
                          bool trans_b, double* c, std::size_t m,
                          std::size_t n, std::size_t k, double alpha,
                          double beta);

}  // namespace mako
