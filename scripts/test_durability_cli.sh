#!/usr/bin/env bash
# End-to-end durability checks against the mako CLI binary:
#
#   1. interrupt-and-resume: stop after 4 iterations (--max-iterations +
#      --checkpoint), restore, and require the final energy line to match the
#      uninterrupted run exactly (the resume is bit-identical, so every
#      printed digit must agree — stronger than the 1e-12 contract).
#   2. kill-and-resume: SIGTERM mid-run must exit 7 (graceful cancel) and
#      leave a checkpoint that restores to the same converged energy.
#   3. wall-clock budget: --max-seconds on an unconvergeable run must exit 6
#      and leave a checkpoint that a later run can restore from.
#   4. corruption: a flipped byte (header or payload) must be rejected with a
#      clean "checkpoint:" error and exit 1, never a crash or a silent
#      restart.
#   5. compatibility: sample/water_it4.ckpt, written after 4 iterations by a
#      build from before the subspace diagonalizer and its options left
#      ScfOptions, must still restore and reach the fresh run's energy.
#
# Usage: test_durability_cli.sh <path-to-mako-binary> <sample-dir>
set -u

MAKO="${1:?usage: test_durability_cli.sh <mako-binary> <sample-dir>}"
SAMPLES="${2:?usage: test_durability_cli.sh <mako-binary> <sample-dir>}"
MOL="$SAMPLES/water.xyz"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/mako_durability.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
pass() { echo "  ok: $*"; }

energy_line() { grep '^Total Energy:' "$1" || true; }

[ -x "$MAKO" ] || fail "mako binary '$MAKO' not executable"
[ -f "$MOL" ] || fail "sample molecule '$MOL' missing"

# ---- 1. interrupt-and-resume is bit-identical ----------------------------
"$MAKO" --mol "$MOL" >"$WORK/ref.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "reference run exited $code (want 0)"

"$MAKO" --mol "$MOL" --max-iterations 4 --checkpoint "$WORK/ck1" \
  >"$WORK/head.log" 2>&1
code=$?
[ "$code" -eq 4 ] || fail "interrupted run exited $code (want 4: not converged)"
[ -f "$WORK/ck1" ] || fail "interrupted run wrote no checkpoint"

"$MAKO" --mol "$MOL" --restore "$WORK/ck1" >"$WORK/resume.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "resumed run exited $code (want 0)"
grep -q 'resumed from iteration 4' "$WORK/resume.log" ||
  fail "resumed run did not report its restore point"

e_ref="$(energy_line "$WORK/ref.log")"
e_res="$(energy_line "$WORK/resume.log")"
[ -n "$e_ref" ] || fail "reference run printed no energy"
[ "$e_ref" = "$e_res" ] ||
  fail "resumed energy differs: '$e_res' vs uninterrupted '$e_ref'"
pass "interrupt-and-resume reproduces the uninterrupted energy exactly"

# ---- 2. SIGTERM mid-run, restart from checkpoint -------------------------
# An unconvergeable run (threshold 0) that checkpoints every iteration gives
# the signal a wide-open window; the restore leg then runs two more
# iterations under its own cap to prove the checkpoint is live.
"$MAKO" --mol "$MOL" --convergence 0 --max-iterations 100000 \
  --checkpoint "$WORK/ck2" >"$WORK/kill.log" 2>&1 &
pid=$!
for _ in $(seq 1 600); do
  [ -f "$WORK/ck2" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
[ -f "$WORK/ck2" ] || { kill -9 "$pid" 2>/dev/null; wait "$pid" 2>/dev/null
                        fail "no checkpoint appeared within 60s"; }
sleep 0.2  # let a couple more iterations land mid-flight
kill -TERM "$pid"
wait "$pid"
code=$?
[ "$code" -eq 7 ] || fail "SIGTERM'd run exited $code (want 7: cancelled)"
grep -q 'cancelled' "$WORK/kill.log" ||
  fail "SIGTERM'd run did not report the cancellation"

"$MAKO" --mol "$MOL" --convergence 0 --max-iterations 100000 \
  --restore "$WORK/ck2" --max-seconds 2 >"$WORK/kill_resume.log" 2>&1
code=$?
[ "$code" -eq 6 ] || fail "post-kill resume exited $code (want 6: deadline)"
grep -q 'resumed from iteration' "$WORK/kill_resume.log" ||
  fail "post-kill resume did not restore the checkpoint"
pass "SIGTERM exits 7 and leaves a checkpoint the next run restores"

# ---- 3. --max-seconds graceful stop --------------------------------------
"$MAKO" --mol "$MOL" --convergence 0 --max-iterations 100000 \
  --checkpoint "$WORK/ck3" --max-seconds 1 >"$WORK/budget.log" 2>&1
code=$?
[ "$code" -eq 6 ] || fail "budgeted run exited $code (want 6: deadline)"
grep -q 'deadline' "$WORK/budget.log" ||
  fail "budgeted run did not report the expired budget"
[ -f "$WORK/ck3" ] || fail "budgeted run wrote no checkpoint"

"$MAKO" --mol "$MOL" --convergence 0 --max-iterations 100000 \
  --restore "$WORK/ck3" --max-seconds 1 >"$WORK/budget_resume.log" 2>&1
code=$?
[ "$code" -eq 6 ] || fail "budget resume exited $code (want 6)"
grep -q 'resumed from iteration' "$WORK/budget_resume.log" ||
  fail "budget resume did not restore the checkpoint"
pass "--max-seconds exits 6 with a resumable checkpoint"

# ---- 4. corrupted checkpoints are rejected cleanly ------------------------
cp "$WORK/ck1" "$WORK/ck_badmagic"
printf 'X' | dd of="$WORK/ck_badmagic" bs=1 seek=0 conv=notrunc 2>/dev/null
"$MAKO" --mol "$MOL" --restore "$WORK/ck_badmagic" >"$WORK/bad1.log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "bad-magic restore exited $code (want 1)"
grep -q 'checkpoint' "$WORK/bad1.log" ||
  fail "bad-magic restore did not name the checkpoint in its error"

cp "$WORK/ck1" "$WORK/ck_badbyte"
size=$(wc -c <"$WORK/ck_badbyte")
printf '\xde\xad\xbe\xef' |
  dd of="$WORK/ck_badbyte" bs=1 seek=$((size - 12)) conv=notrunc 2>/dev/null
"$MAKO" --mol "$MOL" --restore "$WORK/ck_badbyte" >"$WORK/bad2.log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "corrupt-payload restore exited $code (want 1)"
grep -q 'checkpoint' "$WORK/bad2.log" ||
  fail "corrupt-payload restore did not name the checkpoint in its error"
pass "corrupted checkpoints are rejected with exit 1"

# ---- 5. a checkpoint from an earlier build restores -----------------------
# The file was written with `--precision adaptive --ranks 1`; passing the
# same flags keeps the fingerprint equal under any MAKO_PRECISION/MAKO_RANKS.
OLD_CKPT="$SAMPLES/water_it4.ckpt"
[ -f "$OLD_CKPT" ] || fail "sample checkpoint '$OLD_CKPT' missing"
"$MAKO" --mol "$MOL" --precision adaptive --ranks 1 >"$WORK/fresh5.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "fresh adaptive run exited $code (want 0)"
"$MAKO" --mol "$MOL" --precision adaptive --ranks 1 --restore "$OLD_CKPT" \
  >"$WORK/old_resume.log" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "restoring '$OLD_CKPT' exited $code (want 0)"
grep -q 'resumed from iteration 4' "$WORK/old_resume.log" ||
  fail "restore of '$OLD_CKPT' did not report iteration 4"
e_fresh="$(energy_line "$WORK/fresh5.log")"
e_old="$(energy_line "$WORK/old_resume.log")"
[ -n "$e_fresh" ] || fail "fresh adaptive run printed no energy"
[ "$e_fresh" = "$e_old" ] ||
  fail "restored energy differs: '$e_old' vs fresh '$e_fresh'"
pass "a checkpoint from an earlier build restores to the fresh energy"

echo "durability_cli: all legs passed"
