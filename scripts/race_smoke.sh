#!/usr/bin/env bash
# Race-detection smoke (the ctest `race_smoke` entry, docs/RACES.md):
#
#   1. litmus verdicts — every deliberately racy litmus program is flagged
#      and every race-free twin is quiet, at BOTH granularities and under
#      both protocols (the litmus binary's own --all exit status),
#   2. the zero-race oracle — all five paper figures run clean under
#      --race-detect on (TSP's stale-bound reads are annotated benign, so
#      anything reported is a regression in an app or in the detector),
#   3. detector runs are deterministic — a same-seed rerun produces a
#      byte-identical race report,
#   4. detector attachment does not perturb — figure answers with the
#      detector on match the detector-off answers exactly,
#   5. the native lost-update regression stays fixed — the in-process DSM's
#      flush/invalidate-vs-writer stress (the historical java_pf flake,
#      tests/native_stress_test.cpp) passes repeatedly.
#
# Usage: scripts/race_smoke.sh [build-dir]       (default: build)
# RACE_SMOKE_NATIVE_REPS overrides the native stress repeat count. Check 5
# needs tests/native_tests, so build-dir must have the tests built.
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"
FIGS=(fig1_pi fig2_jacobi fig3_barnes fig4_tsp fig5_asp)
smoke_init race_smoke "${1:-build}" bench/litmus "${FIGS[@]/#/bench/}" tests/native_tests
LITMUS="$BUILD/bench/litmus"

# 1. Litmus verdicts (the binary exits non-zero on any verdict mismatch).
for proto in java_pf java_ic hybrid; do
  for gran in field page; do
    run "$WORK/litmus.$proto.$gran.txt" "$LITMUS" --all --protocol "$proto" \
        --race-detect "on,racegran=$gran" \
        --race-out "$WORK/litmus.$proto.$gran.report"
  done
done
echo "race_smoke: litmus verdicts hold (3 protocols x 2 granularities)"

# 3. Same-seed determinism: rerun one litmus config, compare reports.
run "$WORK/litmus.rerun.txt" "$LITMUS" --all --race-detect on \
    --race-out "$WORK/litmus.rerun.report"
same "same-seed race reports differ" \
     "$WORK/litmus.java_pf.field.report" "$WORK/litmus.rerun.report"
echo "race_smoke: same-seed race report is byte-identical"

# 2+4. Zero-race oracle over the five paper figures, plus non-perturbation.
# Each figure binary sweeps all three protocols (java_ic, java_pf, hybrid)
# per run, so the oracle covers the adaptive protocol's mode switches and
# home migrations too.
for fig in "${FIGS[@]}"; do
  BIN="$BUILD/bench/$fig"
  run "$WORK/$fig.off.txt" "$BIN" --quick --no-sci --max-nodes 4
  run "$WORK/$fig.on.txt" "$BIN" --quick --no-sci --max-nodes 4 \
      --race-detect on --race-out "$WORK/$fig.report"
  if grep -E '^  races: [1-9]' "$WORK/$fig.report" > /dev/null; then
    grep -E -A1 '^== run|^  races: [1-9]|^  addr' "$WORK/$fig.report" | head -n 30 >&2 || true
    fail "$fig reported data races"
  fi
  answers "$WORK/$fig.off.txt" > "$WORK/$fig.off.ans"
  answers "$WORK/$fig.on.txt" > "$WORK/$fig.on.ans"
  same "$fig answers changed with the detector on" "$WORK/$fig.off.ans" "$WORK/$fig.on.ans"
done
echo "race_smoke: zero-race oracle holds on all five figures (answers unperturbed)"

# 5. The native lost-update regression (the historical java_pf flake): the
# flush/invalidate-vs-writer stress must pass back-to-back. Full 100x runs
# live in scripts/soak_faults.sh territory; the smoke keeps CI fast.
REPS="${RACE_SMOKE_NATIVE_REPS:-10}"
for ((i = 1; i <= REPS; i++)); do
  run "$WORK/native.$i.txt" "$BUILD/tests/native_tests" --gtest_brief=1 \
      --gtest_filter='*FlushInvalidateVsConcurrentWriterLosesNoUpdates*:*MonitorContentionAcrossManyObjects*'
done
echo "race_smoke: native lost-update stress passed ${REPS}x"

echo "race_smoke: OK"
