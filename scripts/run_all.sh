#!/usr/bin/env bash
# Builds everything, runs the test suite and every experiment, and records
# the outputs the repository documents (test_output.txt, bench_output.txt).
# Usage: scripts/run_all.sh [--full]   (--full = the paper's problem sizes)
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=""
if [[ "${1:-}" == "--full" ]]; then FULL="--full"; fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

{
  for b in fig1_pi fig2_jacobi fig3_barnes fig4_tsp fig5_asp; do
    echo "===== $b ====="
    ./build/bench/$b $FULL
  done
  for b in table1_modules table2_primitives ablation_checkcost ablation_pagesize \
           ablation_interp ext_threads_per_node ext_migration \
           micro_native_detection; do
    echo "===== $b ====="
    ./build/bench/$b
  done
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt, bench_output.txt"
