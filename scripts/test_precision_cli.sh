#!/usr/bin/env bash
# End-to-end precision governance checks against the mako CLI binary:
#
#   1. --precision fp64 forces exact FP64 everywhere: the "Total Energy:"
#      line is bit-identical (digit for digit) across both built-in GEMM
#      backends, with --quantize on — the mode outranks the quantization
#      switch.
#   2. MAKO_PRECISION=fp64 in the environment is exactly equivalent to the
#      --precision fp64 flag.
#   3. --precision adaptive reproduces the default run's energy line (the
#      governor's default path is the pre-governor schedule).
#   4. garbage in --precision is a usage error (exit 2, message lists the
#      valid modes); garbage in MAKO_PRECISION is a typed input error
#      (exit 1) naming the variable.
#   5. --quantize --precision-ladder converges (exit 0) — the FP16 -> TF32
#      ladder smoke test.
#
# Usage: test_precision_cli.sh <path-to-mako-binary> <sample-dir>
set -u

MAKO="${1:?usage: test_precision_cli.sh <mako-binary> <sample-dir>}"
SAMPLES="${2:?usage: test_precision_cli.sh <mako-binary> <sample-dir>}"
MOL="$SAMPLES/water.xyz"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/mako_precision.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
pass() { echo "  ok: $*"; }

energy_line() { grep '^Total Energy:' "$1" || true; }

[ -x "$MAKO" ] || fail "mako binary '$MAKO' not executable"
[ -f "$MOL" ] || fail "sample molecule '$MOL' missing"

run() {  # run <logname> <args...>
  local log="$WORK/$1"; shift
  env -u MAKO_PRECISION -u MAKO_BACKEND "$MAKO" --mol "$MOL" "$@" \
    >"$log" 2>&1
}

# ---- 1. --precision fp64 is bit-identical across backends ------------------
ref_energy=""
for backend in reference blocked+quantized; do
  run "fp64_${backend//+/_}.log" --backend "$backend" --quantize \
      --precision fp64
  code=$?
  [ "$code" -eq 0 ] ||
    fail "--precision fp64 on '$backend' exited $code (want 0)"
  e="$(energy_line "$WORK/fp64_${backend//+/_}.log")"
  [ -n "$e" ] || fail "--precision fp64 on '$backend' printed no energy"
  if [ -z "$ref_energy" ]; then
    ref_energy="$e"
  elif [ "$e" != "$ref_energy" ]; then
    fail "--precision fp64 energy differs on '$backend': '$e' vs '$ref_energy'"
  fi
done
pass "--precision fp64 energies bit-identical across both built-in backends"

# ---- 2. MAKO_PRECISION env == --precision flag -----------------------------
env -u MAKO_BACKEND MAKO_PRECISION=fp64 "$MAKO" --mol "$MOL" \
  --backend blocked+quantized --quantize >"$WORK/env_fp64.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "MAKO_PRECISION=fp64 run exited $code (want 0)"
e_env="$(energy_line "$WORK/env_fp64.log")"
[ "$e_env" = "$ref_energy" ] ||
  fail "MAKO_PRECISION=fp64 energy differs from --precision fp64: '$e_env'"
pass "MAKO_PRECISION=fp64 is equivalent to --precision fp64"

# ---- 3. --precision adaptive reproduces the default ------------------------
run default.log --quantize
[ $? -eq 0 ] || fail "default quantized run failed"
run adaptive.log --quantize --precision adaptive
[ $? -eq 0 ] || fail "--precision adaptive run failed"
e_def="$(energy_line "$WORK/default.log")"
e_ada="$(energy_line "$WORK/adaptive.log")"
[ -n "$e_def" ] || fail "default run printed no energy"
[ "$e_def" = "$e_ada" ] ||
  fail "--precision adaptive energy differs from default: '$e_ada' vs '$e_def'"
pass "--precision adaptive reproduces the default schedule exactly"

# ---- 4. garbage modes fail loudly ------------------------------------------
run garbage_flag.log --precision float8
code=$?
[ "$code" -eq 2 ] || fail "--precision float8 exited $code (want 2: usage)"
grep -q 'adaptive, fp64, fp32, tf32, fp16' "$WORK/garbage_flag.log" ||
  fail "--precision error does not list the valid modes"

env -u MAKO_BACKEND MAKO_PRECISION=quantum "$MAKO" --mol "$MOL" \
  >"$WORK/garbage_env.log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "MAKO_PRECISION=quantum exited $code (want 1)"
grep -q 'MAKO_PRECISION' "$WORK/garbage_env.log" ||
  fail "garbage-env error does not name MAKO_PRECISION"
pass "garbage precision modes rejected with the exit-code contract intact"

# ---- 5. precision-ladder smoke ---------------------------------------------
run ladder.log --quantize --precision-ladder
code=$?
[ "$code" -eq 0 ] || fail "--precision-ladder run exited $code (want 0)"
grep -q '(converged)' "$WORK/ladder.log" ||
  fail "--precision-ladder run did not converge"
pass "--quantize --precision-ladder converges"

echo "PASS: all precision CLI checks"
