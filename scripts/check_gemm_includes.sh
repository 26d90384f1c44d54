#!/usr/bin/env bash
# Layering check: linalg/gemm.hpp (the raw kernel surface) is private to
# src/linalg/.  Everything else must go through linalg/backend.hpp, so every
# GEMM of the library runs through the one GemmBackend and the Matrix
# wrappers beside it.  Wired into ctest as `check_gemm_includes`.
#
# Allowlist:
#   src/linalg/*       — the kernels' own home
#   tests/test_gemm.cpp — unit-tests the raw kernels themselves
set -u

cd "$(dirname "$0")/.."

violations=$(grep -rn --include='*.cpp' --include='*.hpp' \
  'linalg/gemm\.hpp' src tests bench apps examples 2>/dev/null |
  grep -v '^src/linalg/' |
  grep -v '^tests/test_gemm\.cpp:' || true)

if [ -n "${violations}" ]; then
  echo "error: linalg/gemm.hpp is private to src/linalg/;" \
       "include linalg/backend.hpp instead:" >&2
  echo "${violations}" >&2
  exit 1
fi

echo "ok: no direct linalg/gemm.hpp includes outside src/linalg/"
