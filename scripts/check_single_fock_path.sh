#!/usr/bin/env bash
# Layering check: the library has one ERI engine, KernelMako.  The
# per-quartet ReferenceEriEngine is a bench/test baseline only: it lives in
# bench/ (mako_bench_models), where it drives the per-quartet Fock baseline
# (bench/reference_fock.*) and serves as the oracle the tests compare
# against.  No file under src/, apps/ or examples/ may include it.  Wired
# into ctest as `check_single_fock_path`.
set -u

cd "$(dirname "$0")/.."

violations=$(grep -rn --include='*.cpp' --include='*.hpp' \
  'eri_reference\.hpp' src apps examples 2>/dev/null || true)

if [ -n "${violations}" ]; then
  echo "error: the reference ERI engine is a bench/test baseline; src/," \
       "apps/ and examples/ may not include it:" >&2
  echo "${violations}" >&2
  exit 1
fi

echo "ok: no reference ERI engine in src/, apps/ or examples/"
