#!/usr/bin/env bash
# Builds the benchmark program from source and runs it (benchmark/README.md).
#
#   bash benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--reps R]
#                         [--trace 0|1] [--traced] [--smoke] [--out DIR]
#                         [--expect-digest FILE|DIR]
#
# Without --workload every workload runs, one process after another (the
# simulator is single-threaded; nothing runs in parallel). Each workload
# prints every metric with its unit, writes DIR/<W>.json (and, traced,
# DIR/<W>.trace.json), and ends its output with one JSON result line.
# --traced is --trace 1. --expect-digest takes a result file, or a directory
# of them (DIR/<W>.json), whose virt_digest every run must reproduce.
#
# Build products, results and compiler temporaries stay in .bench_build/ at
# the repository root. Exit status: non-zero only if the build fails or a
# workload crashes; wrong answers are counted in the result instead.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
out="$build/results"
expect=""
selected=()
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed|--seconds|--reps|--trace) args+=("$1" "$2"); shift 2 ;;
    --traced) args+=(--trace 1); shift ;;
    --smoke) args+=(--smoke); shift ;;
    --out) out="$2"; shift 2 ;;
    --expect-digest) expect="$2"; shift 2 ;;
    -h|--help) sed -n '2,17p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1' (see --help)" >&2; exit 2 ;;
  esac
done
if [[ ${#selected[@]} -eq 0 ]]; then
  selected=(paper_n12 scale_n256 serve_read serve_write_ha)
fi

mkdir -p "$build/tmp" "$out"
export TMPDIR="$build/tmp"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
if [[ ! -f "$build/Makefile" ]]; then
  if ! cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      > "$build/configure.log" 2>&1; then
    tail -n 20 "$build/configure.log" >&2
    echo "run.sh: configuring the benchmark failed (log: $build/configure.log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target hyp_benchmark -j "$jobs" > "$build/build.log" 2>&1; then
  tail -n 20 "$build/build.log" >&2
  echo "run.sh: building the benchmark failed (log: $build/build.log)" >&2
  exit 1
fi

for w in "${selected[@]}"; do
  digest=()
  if [[ -d "$expect" ]]; then
    digest=(--expect-digest "$expect/$w.json")
  elif [[ -n "$expect" ]]; then
    digest=(--expect-digest "$expect")
  fi
  "$build/hyp_benchmark" --workload "$w" --out "$out" \
    ${args[@]+"${args[@]}"} ${digest[@]+"${digest[@]}"}
done
