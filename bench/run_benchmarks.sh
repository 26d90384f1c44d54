#!/usr/bin/env bash
# Runs the paper-figure benchmarks and records their results as JSON.
#
#   BUILD_DIR  build tree containing the bench binaries   (default: build)
#   OUT_DIR    where BENCH_fig6/fig8/fig10/batch JSON goes (default: bench)
#   FIG8_SIZE  system-size sweep argument for fig8        (default: 2)
#   FIG10_SIZE system-size sweep argument for fig10       (default: 1)
#
# Usage: run_benchmarks.sh
#
# The script (re)builds the two bench targets, runs them, and writes
# BENCH_fig6.json and BENCH_fig8.json into OUT_DIR.  Human-readable tables
# still go to stdout.
#
# Each fig8 record carries the J/K wall times behind its baseline iteration
# (jk_mako_s, jk_ref_s: t_ref_s is t_mako_s with the first replaced by the
# second), Mako's J/K on one thread (jk_mako_1t_s) with the same-thread
# ratio jk_speedup_1t = jk_ref_s / jk_mako_1t_s, and a "stages" breakdown
# of the FP64 and the quantized Mako run: plan_build_s (one-time Fock plan
# construction), route_s (per-iteration screening and routing wall),
# eri_s / digest_s (summed shard CPU), diag_s, gemm_calls, and the
# screening counters screen_visited / screen_pruned_early.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-bench}"
FIG8_SIZE="${FIG8_SIZE:-2}"
FIG10_SIZE="${FIG10_SIZE:-1}"

if [ $# -gt 0 ]; then
  echo "run_benchmarks.sh: unknown option '$1'" >&2
  exit 2
fi

if [ ! -d "${BUILD_DIR}" ]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j --target bench_fig6_eri_micro \
  bench_fig8_end2end bench_fig10_scaling bench_batch_throughput

mkdir -p "${OUT_DIR}"

echo "== Figure 6: ERI kernel microbenchmark =="
"${BUILD_DIR}/bench/bench_fig6_eri_micro" "--json=${OUT_DIR}/BENCH_fig6.json"

echo
echo "== Figure 8: end-to-end SCF iteration time =="
"${BUILD_DIR}/bench/bench_fig8_end2end" "${FIG8_SIZE}" \
  "--json=${OUT_DIR}/BENCH_fig8.json"

echo
echo "== Figure 10: rank-sharded scaling efficiency =="
"${BUILD_DIR}/bench/bench_fig10_scaling" "--size=${FIG10_SIZE}" \
  "--json=${OUT_DIR}/BENCH_fig10.json"

echo
echo "== Batch: multi-molecule throughput =="
"${BUILD_DIR}/bench/bench_batch_throughput" \
  "--json=${OUT_DIR}/BENCH_batch.json"

echo
echo "wrote ${OUT_DIR}/BENCH_fig6.json, ${OUT_DIR}/BENCH_fig8.json," \
  "${OUT_DIR}/BENCH_fig10.json and ${OUT_DIR}/BENCH_batch.json"
