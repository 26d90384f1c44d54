#!/usr/bin/env bash
# End-to-end rank-sharded execution checks against the mako CLI binary:
#
#   1. --ranks 4 converges with exit 0 and prints the SAME energy line as
#      --ranks 1, digit for digit (the bit-identity contract), plus the
#      rank/comm accounting lines in the report.
#   2. invalid rank counts: --ranks 3 is a typed input error (exit 1, message
#      names the power-of-two constraint); --ranks 0 and non-numeric values
#      are usage errors (exit 2) — the exit-code contract is unchanged.
#   3. --cluster is gone: it exits 2 as an unknown option, like --engine.
#   4. MAKO_RANKS resolves when --ranks is absent (the CI multi-rank leg
#      drives the whole suite this way), and garbage in it fails loudly.
#   5. the run follows its CPU affinity mask: under `taskset -c 0` it prints
#      `threads: 1`, on the full mask the thread count the pool rule gives
#      (k - 1 workers plus the caller on k > 2 CPUs), and both runs print
#      the same energy.  Skipped when taskset is not installed.
#
# Usage: test_ranks_cli.sh <path-to-mako-binary> <sample-dir>
set -u

MAKO="${1:?usage: test_ranks_cli.sh <mako-binary> <sample-dir>}"
SAMPLES="${2:?usage: test_ranks_cli.sh <mako-binary> <sample-dir>}"
MOL="$SAMPLES/water.xyz"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/mako_ranks.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
pass() { echo "  ok: $*"; }

energy_line() { grep '^Total Energy:' "$1" || true; }

[ -x "$MAKO" ] || fail "mako binary '$MAKO' not executable"
[ -f "$MOL" ] || fail "sample molecule '$MOL' missing"

# ---- 1. --ranks N is bit-identical to --ranks 1 ---------------------------
env -u MAKO_RANKS "$MAKO" --mol "$MOL" --ranks 1 >"$WORK/r1.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "--ranks 1 run exited $code (want 0)"

env -u MAKO_RANKS "$MAKO" --mol "$MOL" --ranks 4 >"$WORK/r4.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "--ranks 4 run exited $code (want 0)"
grep -q '^ranks: *4 (simcomm)' "$WORK/r4.log" ||
  fail "--ranks 4 report does not state the rank topology"
grep -q '^modeled comm time:' "$WORK/r4.log" ||
  fail "--ranks 4 report has no comm accounting line"

e1="$(energy_line "$WORK/r1.log")"
e4="$(energy_line "$WORK/r4.log")"
[ -n "$e1" ] || fail "--ranks 1 run printed no energy"
[ "$e1" = "$e4" ] || fail "--ranks 4 energy differs: '$e4' vs '$e1'"
pass "--ranks 4 reproduces the --ranks 1 energy exactly (exit 0)"

# ---- 2. invalid rank counts ------------------------------------------------
env -u MAKO_RANKS "$MAKO" --mol "$MOL" --ranks 3 >"$WORK/r3.log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "--ranks 3 exited $code (want 1: typed input error)"
grep -q 'power of two' "$WORK/r3.log" ||
  fail "--ranks 3 error does not name the power-of-two constraint"

env -u MAKO_RANKS "$MAKO" --mol "$MOL" --ranks 0 >"$WORK/r0.log" 2>&1
code=$?
[ "$code" -eq 2 ] || fail "--ranks 0 exited $code (want 2: usage error)"

env -u MAKO_RANKS "$MAKO" --mol "$MOL" --ranks many >"$WORK/rx.log" 2>&1
code=$?
[ "$code" -eq 2 ] || fail "--ranks many exited $code (want 2: usage error)"
pass "invalid rank counts keep the exit-code contract (1 typed, 2 usage)"

# ---- 3. --cluster is an unknown option -----------------------------------
env -u MAKO_RANKS "$MAKO" --mol "$MOL" --cluster single-node \
  >"$WORK/cl.log" 2>&1
code=$?
[ "$code" -eq 2 ] || fail "--cluster single-node exited $code (want 2)"
pass "--cluster is an unknown option (exit 2)"

# ---- 4. MAKO_RANKS environment resolution ----------------------------------
MAKO_RANKS=4 "$MAKO" --mol "$MOL" >"$WORK/env4.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "MAKO_RANKS=4 run exited $code (want 0)"
grep -q '^ranks: *4 (simcomm)' "$WORK/env4.log" ||
  fail "MAKO_RANKS=4 was not resolved into the rank topology"
e_env="$(energy_line "$WORK/env4.log")"
[ "$e1" = "$e_env" ] || fail "MAKO_RANKS=4 energy differs: '$e_env' vs '$e1'"

MAKO_RANKS=garbage "$MAKO" --mol "$MOL" >"$WORK/envbad.log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "MAKO_RANKS=garbage exited $code (want 1)"
pass "MAKO_RANKS resolves when --ranks is absent and rejects garbage"

# ---- 5. the thread count follows the affinity mask -------------------------
threads_line() { grep '^threads:' "$1" | tr -s ' ' || true; }
if command -v taskset >/dev/null 2>&1; then
  env -u MAKO_RANKS taskset -c 0 "$MAKO" --mol "$MOL" >"$WORK/t1.log" 2>&1
  code=$?
  [ "$code" -eq 0 ] || fail "taskset -c 0 run exited $code (want 0)"
  [ "$(threads_line "$WORK/t1.log")" = "threads: 1" ] ||
    fail "taskset -c 0 run reports '$(threads_line "$WORK/t1.log")'"
  cpus="$(nproc)"
  want=1
  [ "$cpus" -gt 2 ] && want="$cpus"
  [ "$(threads_line "$WORK/r1.log")" = "threads: $want" ] ||
    fail "full-mask run reports '$(threads_line "$WORK/r1.log")' on $cpus CPUs (want $want)"
  [ "$(energy_line "$WORK/t1.log")" = "$e1" ] ||
    fail "taskset -c 0 energy differs: '$(energy_line "$WORK/t1.log")' vs '$e1'"
  pass "threads follow the affinity mask (1 under taskset -c 0, $want on $cpus CPUs); same energy"
else
  echo "  skipped: taskset not installed; affinity step not run"
fi

echo "ranks_cli: all legs passed"
