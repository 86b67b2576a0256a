#!/usr/bin/env bash
# Serve smoke (the ctest `serve_smoke` entry, docs/SERVING.md): the KV/session
# store under open-loop Zipf traffic, both protocols x {fault-free, crash
# with K=2 chain backups, minority partition}, must
#
#   1. verify every cell — zero lost acknowledged writes: the final store
#      state matches the host-side serial replay of the same op streams
#      exactly (bench/serve exits non-zero on any divergence),
#   2. actually exercise the machinery it claims to measure: serve_op latency
#      slices in the trace, a real crash/promotion/restart sequence, and
#      quorum holds in the partition cells,
#   3. be byte-identical on a same-seed rerun — stdout (modulo the artifact
#      path lines), the hyp-metrics-v1 JSON and the streamed trace, and
#   4. stamp the opt-in measurement window into the metrics JSON when
#      warmup/cooldown trimming is enabled (and omit it when it is not).
#
# Usage: scripts/serve_smoke.sh [build-dir]       (default: build)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"
smoke_init serve_smoke "${1:-build}" bench/serve
SERVE="$BUILD/bench/serve"

# All six cells in one sweep: {java_ic, java_pf} x theta 0.99 x
# {none, crash(K=2), partition}; the streamed trace covers every cell.
ARGS=(--nodes 4 --keys 1024 --thetas 0.99 --ops 250 --rate 4000 --seed 11)
run "$WORK/a.txt" "$SERVE" "${ARGS[@]}" \
    --metrics-out "$WORK/a.metrics.json" \
    --trace-out "$WORK/a.trace.json"

# 1. every cell matched its serial reference.
if ! grep -q '^verification: PASS' "$WORK/a.txt"; then
  tail -n 20 "$WORK/a.txt" >&2
  fail "a cell diverged from its serial reference"
fi

# 2a. the trace carries the serving timeline and the injected faults.
trace_has "the serve sweep" "$WORK/a.trace.json" \
    serve_get serve_put node_crash home_promoted node_restart

# 2b. the partition cells held writes for quorum, and the SLO summary rows
# landed in the metrics JSON for compare_metrics.py to gate.
for c in ha_no_quorum_holds serve_p99_us serve_throughput_ops serve_faultwin_ops; do
  grep -q "\"$c\"" "$WORK/a.metrics.json" || fail "metrics JSON is missing counter '$c'"
done

# 3. same-seed rerun is byte-identical: stdout (modulo the artifact path
# lines), metrics and streamed trace.
run "$WORK/b.txt" "$SERVE" "${ARGS[@]}" \
    --metrics-out "$WORK/b.metrics.json" \
    --trace-out "$WORK/b.trace.json"
same "same-seed rerun stdout not byte-identical" "$WORK/a.txt" "$WORK/b.txt"
same "same-seed rerun produced different metrics" "$WORK/a.metrics.json" "$WORK/b.metrics.json"
same "same-seed rerun produced a different trace" "$WORK/a.trace.json" "$WORK/b.trace.json"

# The A/B gate itself must see the rerun as clean at threshold 0 (and it
# exercises the direction-aware serve_* rows on real data).
if command -v python3 > /dev/null; then
  run "$WORK/cmp.txt" python3 scripts/compare_metrics.py -q \
      "$WORK/a.metrics.json" "$WORK/b.metrics.json"
fi

# 4. warmup/cooldown trimming stamps the window object; the default run
# carries none (the option is strictly opt-in).
if grep -q '"window"' "$WORK/a.metrics.json"; then
  fail "untrimmed run must not carry a window object"
fi
run "$WORK/w.txt" "$SERVE" --nodes 2 --thetas 0.9 --profiles none \
    --ops 150 --rate 4000 --seed 11 --warmup-us 8000 --cooldown-us 8000 \
    --metrics-out "$WORK/w.metrics.json"
grep -q '"window":{"start_ps":' "$WORK/w.metrics.json" ||
  fail "trimmed run is missing the window object"

echo "serve_smoke: both protocols x {none, crash K=2, partition} verified" \
     "(zero lost acked writes, rerun byte-identical, window stamped)"
