#!/usr/bin/env bash
# Adaptive-protocol smoke (the ctest `hybrid_smoke` entry,
# docs/PROTOCOLS.md §hybrid):
#
#   1. figure dominance — on quick sweeps of a check-bound figure (jacobi)
#      and a fault-bound one (asp), hybrid's elapsed virtual time beats or
#      ties the better of {java_ic, java_pf} at every sweep point (1% slack
#      for open-loop jitter at tie points);
#   2. serving p99 — in the bench/serve skew cell (write-heavy dominant
#      writer, theta=0.99) the heat-driven home migration engages
#      (dsm_home_migrations >= 1) and hybrid's p99 beats BOTH paper
#      protocols outright;
#   3. migration revert safety — the hot cell (same skew plus a crash window
#      killing the writer node mid-run) loses zero acked writes while
#      migrations are forced to revert;
#   4. determinism — a same-seed rerun of the serve sweep is metrics-
#      identical (threshold 0 via scripts/compare_metrics.py), pinning the
#      mode-switch and migration decisions.
#
# Usage: scripts/hybrid_smoke.sh [build-dir]       (default: build)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"
smoke_init hybrid_smoke "${1:-build}" bench/serve bench/fig2_jacobi bench/fig5_asp

# 1. Figure dominance: hybrid <= min(java_ic, java_pf) * 1.01 per point.
for fig in fig2_jacobi fig5_asp; do
  run "$WORK/$fig.txt" "$BUILD/bench/$fig" --quick --no-sci --max-nodes 4
  if ! awk -F, '
    /^fig[0-9]+,/ { t[$2 "," $4 "," $3] = $5; pts[$2 "," $4] = 1 }
    END {
      bad = 0
      for (k in pts) {
        ic = t[k ",java_ic"]; pf = t[k ",java_pf"]; hy = t[k ",hybrid"]
        if (ic == "" || pf == "" || hy == "") {
          printf "missing protocol row at %s\n", k; bad = 1; continue
        }
        best = (ic < pf) ? ic : pf
        if (hy > best * 1.01) {
          printf "hybrid %.6f > best(%.6f) at %s\n", hy, best, k; bad = 1
        }
      }
      exit bad
    }' "$WORK/$fig.txt"; then
    fail "$fig: hybrid lost to a paper protocol"
  fi
  echo "hybrid_smoke: $fig — hybrid beats or ties both protocols at every point"
done

# 2+3. Serving: skew (steady-state migration win) + hot (crash revert).
SERVE=("$BUILD/bench/serve" --profiles=skew,hot --thetas=0.99)
run "$WORK/serve.txt" "${SERVE[@]}" --metrics-out="$WORK/serve.json"

python3 - "$WORK/serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
pts = {(p["label"], p["protocol"]): p for p in doc["points"]}
def p99(label, proto):
    return pts[(label, proto)]["counters"]["serve_p99_us"]
hy, ic, pf = (p99("theta0.99/skew", p) for p in ("hybrid", "java_ic", "java_pf"))
if not (hy < ic and hy < pf):
    sys.exit(f"hybrid_smoke: FAIL — skew p99: hybrid {hy} vs ic {ic} / pf {pf}")
skew = pts[("theta0.99/skew", "hybrid")]["counters"]
if skew.get("dsm_home_migrations", 0) < 1:
    sys.exit("hybrid_smoke: FAIL — no home migration in the skew cell")
hot = pts[("theta0.99/hot", "hybrid")]["counters"]
if hot.get("dsm_migrations_reverted", 0) < 1:
    sys.exit("hybrid_smoke: FAIL — writer crash forced no migration revert")
print(f"hybrid_smoke: skew p99 — hybrid {hy}us beats ic {ic}us and pf {pf}us "
      f"({skew['dsm_home_migrations']} migrations; "
      f"{hot['dsm_migrations_reverted']} reverted under the crash)")
EOF

# 4. Same-seed determinism of every serve cell, decisions included.
run "$WORK/serve2.txt" "${SERVE[@]}" --metrics-out="$WORK/serve2.json"
python3 scripts/compare_metrics.py "$WORK/serve.json" "$WORK/serve2.json" \
    --threshold 0 -q || fail "same-seed serve rerun drifted"
echo "hybrid_smoke: same-seed rerun is metrics-identical"

echo "hybrid_smoke: OK"
