#!/usr/bin/env bash
# Scale smoke (the ctest `scale_smoke` entry, docs/SCALING.md): reduced
# Jacobi + Barnes at N=256 — two orders of magnitude past the paper's node
# counts — under java_ic, java_pf and hybrid with a kill-and-recover profile
# and K=2 chain backups, must
#
#   1. land on the exact serial-reference answers for every point (the
#      sweep_scale binary exits nonzero otherwise),
#   2. actually exercise recovery at that scale: every point's metrics
#      record exactly one promotion and a nonzero checkpoint stream, and
#   3. be deterministic: a same-seed rerun produces an identical metrics
#      file (host wall/rss fields excluded — those legitimately move).
#
# Usage: scripts/scale_smoke.sh [build-dir]       (default: build)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"
smoke_init scale_smoke "${1:-build}" bench/sweep_scale

PROFILE='replicas=2,crash2@3ms+2ms,seed=7'
SWEEP=("$BUILD/bench/sweep_scale" --nodes 256 --jacobi-n 512 --jacobi-steps 2
       --barnes-bodies 512 --barnes-steps 1
       --fault-profile "$PROFILE")

# 1. sweep_scale exits non-zero when an answer diverges.
run "$WORK/run.txt" "${SWEEP[@]}" --metrics-out "$WORK/run.json"

# 2. recovery engaged at N=256: one promotion and checkpoint traffic on
# every point.
python3 - "$WORK/run.json" <<'EOF' || fail "recovery did not engage on every N=256 point"
import json, sys
points = json.load(open(sys.argv[1]))["points"]
assert points, "no metrics points recorded"
for p in points:
    who = f"{p['label']}/{p['protocol']}/N={p['nodes']}"
    c = p["counters"]
    assert c.get("ha_promotions") == 1, f"{who}: expected exactly 1 promotion, got {c.get('ha_promotions')}"
    assert c.get("ha_checkpoint_msgs", 0) > 0, f"{who}: no checkpoint stream traffic"
    assert c.get("ha_heartbeats", 0) > 0, f"{who}: detector never ticked"
print(f"scale_smoke: {len(points)} points promoted exactly once with a live checkpoint stream")
EOF

# 3. same-seed rerun: identical virtual results (strip the host section —
# wall clock and RSS are allowed to move).
run "$WORK/rerun.txt" "${SWEEP[@]}" --metrics-out "$WORK/rerun.json"
sed '/"host":/d' "$WORK/run.json" > "$WORK/run.virt.json"
sed '/"host":/d' "$WORK/rerun.json" > "$WORK/rerun.virt.json"
same "same-seed rerun metrics differ" "$WORK/run.virt.json" "$WORK/rerun.virt.json"

echo "scale_smoke: N=256 kill-and-recover sweep reproduced serial answers," \
     "rerun bit-identical"
