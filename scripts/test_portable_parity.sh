#!/usr/bin/env bash
# Native vs portable parity: a host-tuned build (`release` preset, AVX-512
# register tiles and F16C staging where the CPU has them) and a
# MAKO_NATIVE_ARCH=OFF build (`portable` preset, the scalar fallbacks) must
# write byte-identical final checkpoints.  The checkpoint holds the energy,
# density, Fock and DIIS history bit for bit, so equal bytes mean every
# GEMM, quantized staging step and reduction agreed.
#
#   1. HF water3/def2-SVP (the FP64 route: every ERI GEMM on the direct
#      regime's kernel).
#   2. B3LYP --quantize glycine/def2-SVP (the quantized route and the XC
#      quadrature).
#
# On a CPU without AVX-512 or F16C both builds run the scalar kernels and
# the check still has to pass.
#
# Usage: test_portable_parity.sh <native-mako> <portable-mako> <sample-dir>
set -u

usage="usage: test_portable_parity.sh <native-mako> <portable-mako> <sample-dir>"
NATIVE="${1:?$usage}"
PORTABLE="${2:?$usage}"
SAMPLES="${3:?$usage}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/mako_parity.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
pass() { echo "  ok: $*"; }

for bin in "$NATIVE" "$PORTABLE"; do
  [ -x "$bin" ] || fail "mako binary '$bin' not executable"
done

# run_pair <name> <mako args...>: runs both binaries with --checkpoint and
# compares the files byte for byte.
run_pair() {
  local name="$1"
  shift
  local side bin code
  for side in native portable; do
    bin="$NATIVE"
    [ "$side" = portable ] && bin="$PORTABLE"
    env -u MAKO_RANKS -u MAKO_PRECISION "$bin" "$@" \
      --checkpoint "$WORK/$name.$side.ckpt" >"$WORK/$name.$side.log" 2>&1
    code=$?
    [ "$code" -eq 0 ] || {
      cat "$WORK/$name.$side.log" >&2
      fail "$name: $side run exited $code (want 0)"
    }
  done
  cmp "$WORK/$name.native.ckpt" "$WORK/$name.portable.ckpt" ||
    fail "$name: native and portable checkpoints differ"
  pass "$name: checkpoints byte-identical ($(grep '^Total Energy:' \
    "$WORK/$name.native.log"))"
}

echo "== native vs portable checkpoint parity =="
run_pair hf_water3_svp --mol "$SAMPLES/water3.xyz" --basis def2-svp
run_pair b3lyp_quant_glycine_svp --mol "$SAMPLES/glycine.xyz" \
  --basis def2-svp --xc b3lyp --quantize
echo "PASS"
