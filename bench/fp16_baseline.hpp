// Table 2's "Baseline FP16" ERI kernel (Section 3.2), the strawman QuantMako
// is measured against: the same two-GEMM pipeline as KernelMako, but with
// unscaled operands and a binary16 running accumulator in both GEMMs.  It
// exists only to reproduce the paper's error table, so it lives with the
// benches and is assembled from the engine's public pieces
// (build_pair_operand, compute_r_integrals_batch and the class plan's
// Hermite index and sign tables) rather than as a branch of the engine.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "kernelmako/batched_eri.hpp"

namespace mako {

/// Naive FP16 GEMM, C = alpha * op(A) * B + beta * C: operands AND the
/// running accumulator are rounded to binary16 at every step, so a large
/// partial sum swallows small addends.  `trans_a` reads A as [KxM].
void gemm_fp16_naive(const double* a, const double* b, double* c,
                     std::size_t m, std::size_t n, std::size_t k, double alpha,
                     double beta, bool trans_a = false);

/// Spherical quartets of a class-homogeneous batch through the baseline
/// kernel, laid out as BatchedEriEngine::compute_batch lays them out.
void baseline_fp16_batch(const EriClassKey& key,
                         std::span<const QuartetRef> batch,
                         std::vector<std::vector<double>>& out);

}  // namespace mako
