#!/usr/bin/env bash
# Layering check: the production Fock path has one ERI engine, KernelMako.
# The per-quartet ReferenceEriEngine is the integral oracle (Schwarz bounds,
# derivatives, tests) and the engine of the bench-side baseline
# (bench/reference_fock.*); nothing on the Fock build path — src/scf,
# src/core, src/kernelmako, apps — may include it.  Wired into ctest as
# `check_single_fock_path`.
set -u

cd "$(dirname "$0")/.."

violations=$(grep -rn --include='*.cpp' --include='*.hpp' \
  'integrals/eri_reference\.hpp' src/scf src/core src/kernelmako apps \
  2>/dev/null || true)

if [ -n "${violations}" ]; then
  echo "error: the Fock build path may not include the reference ERI" \
       "engine; per-quartet baselines live in bench/reference_fock.*:" >&2
  echo "${violations}" >&2
  exit 1
fi

echo "ok: no reference ERI engine on the Fock build path"
