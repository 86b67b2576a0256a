#!/usr/bin/env bash
# End-to-end smoke of the observability layer (docs/OBSERVABILITY.md):
# runs two figure benches at tiny scale with --trace-out/--metrics-out and
# validates the artifacts with python3:
#   - both files parse as JSON;
#   - the streamed Perfetto trace (covers every run of the sweep, including
#     the java_pf points) contains at least one page_fault instant and one
#     update_sent event, plus the derived latency slices;
#   - drop accounting is present (otherData.trace_dropped);
#   - the metrics file is schema hyp-metrics-v1 with counters, histograms,
#     page heat and phase sections on its points.
#
# Usage: scripts/check_obs.sh [build_dir]   (default: build)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"
smoke_init check_obs "${1:-build}" bench/fig1_pi bench/fig2_jacobi

echo "== fig1_pi (tiny sweep) with trace + metrics =="
run "$WORK/fig1.txt" "$BUILD/bench/fig1_pi" --quick --sci=false --max-nodes=4 --intervals 20000 \
  --trace-out="$WORK/fig1.trace.json" \
  --metrics-out="$WORK/fig1.metrics.json"

echo "== fig2_jacobi (tiny sweep) with trace + metrics =="
run "$WORK/fig2.txt" "$BUILD/bench/fig2_jacobi" --quick --sci=false --max-nodes=4 --n 32 --steps 4 \
  --trace-out="$WORK/fig2.trace.json" \
  --metrics-out="$WORK/fig2.metrics.json"

python3 - "$WORK" <<'EOF' || fail "trace or metrics artifacts invalid (see above)"
import json, sys
out = sys.argv[1]

for tool in ("fig1", "fig2"):
    trace = json.load(open(f"{out}/{tool}.trace.json"))
    events = trace["traceEvents"]
    names = [e.get("name") for e in events]
    assert events, f"{tool}: empty traceEvents"
    assert "trace_dropped" in trace.get("otherData", {}), f"{tool}: no drop accounting"
    # The stream covers every attached run of the sweep (the sweep now ends
    # with a hybrid point, whose tiny run may never fault — the java_pf
    # points earlier in the stream must show remote-object detection and
    # update traffic).
    assert names.count("page_fault") >= 1, f"{tool}: no page_fault in trace"
    assert names.count("update_sent") >= 1, f"{tool}: no update_sent in trace"
    slices = [e for e in events if e.get("ph") == "X"]
    assert any(s["name"] == "page_fetch" for s in slices), f"{tool}: no fetch slices"
    print(f"{tool}: trace ok ({len(events)} events, "
          f"{trace['otherData']['trace_dropped']} dropped)")

    metrics = json.load(open(f"{out}/{tool}.metrics.json"))
    assert metrics["schema"] == "hyp-metrics-v1", f"{tool}: bad schema"
    points = metrics["points"]
    assert points, f"{tool}: no metrics points"
    pf = [p for p in points if p.get("protocol") == "java_pf"]
    assert pf, f"{tool}: no java_pf points"
    p = pf[-1]
    assert "counters" in p and p["counters"], f"{tool}: no counters"
    assert "histograms" in p, f"{tool}: no histograms"
    assert "page_heat" in p, f"{tool}: no page heat"
    assert "phases_ps" in p, f"{tool}: no phases"
    assert "trace" in p, f"{tool}: no trace drop section"
    print(f"{tool}: metrics ok ({len(points)} points)")

print("check_obs: all artifacts valid")
EOF
