#!/usr/bin/env bash
# End-to-end precision governance checks against the mako CLI binary:
#
#   1. --precision fp64 with --quantize on converges (the mode outranks the
#      quantization switch); its "Total Energy:" line anchors sections 2
#      and 6.
#   2. MAKO_PRECISION=fp64 in the environment is exactly equivalent to the
#      --precision fp64 flag.
#   3. --precision adaptive reproduces the default run's energy line (the
#      governor's default path is the pre-governor schedule).
#   4. garbage in --precision is a usage error (exit 2, message lists the
#      valid modes); garbage in MAKO_PRECISION is a typed input error
#      (exit 1) naming the variable.
#   5. --quantize --precision-ladder converges (exit 0) — the FP16 -> TF32
#      ladder smoke test.
#   6. there is one GEMM path: --backend is an unknown option (exit 2), and
#      MAKO_BACKEND=reference in the environment changes nothing — the
#      "Total Energy:" line is section 1's, digit for digit.
#   7. a linearly dependent basis (two He atoms 1e-5 Å apart: fewer
#      orthonormal functions than occupied orbitals) is a typed input error
#      (exit 1) naming the linear dependence, not an abort.
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
  env -u MAKO_PRECISION "$MAKO" --mol "$MOL" "$@" >"$log" 2>&1
}

# ---- 1. --precision fp64 outranks --quantize ------------------------------
run fp64.log --quantize --precision fp64
code=$?
[ "$code" -eq 0 ] || fail "--precision fp64 exited $code (want 0)"
ref_energy="$(energy_line "$WORK/fp64.log")"
[ -n "$ref_energy" ] || fail "--precision fp64 printed no energy"
pass "--quantize --precision fp64 converges"

# ---- 2. MAKO_PRECISION env == --precision flag -----------------------------
MAKO_PRECISION=fp64 "$MAKO" --mol "$MOL" --quantize \
  >"$WORK/env_fp64.log" 2>&1
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

MAKO_PRECISION=quantum "$MAKO" --mol "$MOL" >"$WORK/garbage_env.log" 2>&1
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

# ---- 6. one GEMM path: no backend selection survives ----------------------
run backend_flag.log --backend reference
code=$?
[ "$code" -eq 2 ] || fail "--backend reference exited $code (want 2: usage)"
grep -q "unknown option '--backend'" "$WORK/backend_flag.log" ||
  fail "--backend is not reported as an unknown option"

MAKO_BACKEND=reference env -u MAKO_PRECISION "$MAKO" --mol "$MOL" \
  --quantize --precision fp64 >"$WORK/backend_env.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "MAKO_BACKEND=reference run exited $code (want 0)"
e_be="$(energy_line "$WORK/backend_env.log")"
[ "$e_be" = "$ref_energy" ] ||
  fail "MAKO_BACKEND=reference changed the energy: '$e_be' vs '$ref_energy'"
pass "--backend is a usage error and MAKO_BACKEND changes nothing"

# ---- 7. a near-singular basis fails typed ----------------------------------
printf '2\nHe2 1e-5 A apart\nHe 0.0 0.0 0.0\nHe 0.0 0.0 0.00001\n' \
  >"$WORK/he2.xyz"
env -u MAKO_PRECISION "$MAKO" --mol "$WORK/he2.xyz" >"$WORK/he2.log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "near-singular He2 exited $code (want 1)"
grep -q 'linearly dependent' "$WORK/he2.log" ||
  fail "near-singular He2 error does not name the linear dependence"
pass "a linearly dependent basis is a typed input error"

echo "PASS: all precision CLI checks"
