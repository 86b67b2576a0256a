#!/usr/bin/env bash
# Partition smoke (the ctest `partition_smoke` entry, docs/PARTITIONS.md):
# every figure benchmark with a mid-run network split must
#
#   1. actually exercise the partition path (the trace contains the window
#      open/heal events, and — for the splits that isolate a home — a quorum
#      promotion, an epoch bump and the heal-time rejoin),
#   2. reproduce the fault-free answers exactly at every sweep point, all
#      three protocols (split-brain safety: parked minorities and epoch
#      fencing may cost virtual time but never correctness), and
#   3. be byte-identical on a same-seed rerun (the cut, the detector's quorum
#      votes and the heal catch-up are all virtual-time-deterministic).
#
# Three profiles: a minority-isolated home (majority side promotes), an even
# split (no side may promote on the 4-node points; larger points fail over
# the cross-cut watch edge), and a partition overlapping a crash window (the
# confirm defers until the watcher side holds a quorum). Each (figure,
# profile) pair is one fault_cell (scripts/smoke_lib.sh).
#
# Usage: scripts/partition_smoke.sh [build-dir]       (default: build)
#        PARTITION_SMOKE=1 scripts/partition_smoke.sh (fig1 only; the ctest
#                                                      and sanitizer-CI entry)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"

FIGS=(fig1_pi fig2_jacobi fig3_barnes fig4_tsp fig5_asp)
if [[ "${PARTITION_SMOKE:-0}" == "1" ]]; then
  FIGS=(fig1_pi)
fi
smoke_init partition_smoke "${1:-build}" "${FIGS[@]/#/bench/}"

# Profile table: fault profile;required trace events (';'-separated — the
# profiles themselves contain '|' group separators). The quick sweep points
# (1, 4, 12 nodes) cover inert (a 1-node run is never split), exact-group
# and bystander-node placements.
PROFILES=(
  # The home of node 2's zones is alone on the minority side. On the 4-node
  # points {0,1,3} is a corroborated strict majority (every member fails to
  # reach node 2), so it promotes mid-window and node 2 rejoins as a cacher
  # at the heal. On the 12-node points the bystanders 4-11 still reach node 2
  # fine, so silence is never corroborated and NOBODY promotes — cross-cut
  # accesses park until the heal instead (the promotion events below come
  # from the 4-node runs; the streamed trace covers every run of the sweep).
  'partition@3ms+2ms:2|0.1.3,seed=7;ha_partition home_promoted epoch_bump ha_rejoined'
  # 2/2 split on the 4-node points: neither watcher side reaches a strict
  # majority, both sides park on kNoQuorum and drain at the heal. On the
  # 12-node point the bystanders still hear both groups, so the corroboration
  # vote blocks any cross-cut confirmation there too.
  'partition@3ms+2ms:0.1|2.3,seed=7;ha_partition'
  # Node 2 crashes, then a split cuts its watcher off from half the cluster:
  # on the 4-node point the confirm defers until the heal restores the
  # promotion quorum.
  'crash2@3ms+2ms,partition@3.2ms+1ms:0.1|2.3,seed=7;ha_partition node_crash home_promoted node_restart'
)

for fig in "${FIGS[@]}"; do
  for row in "${PROFILES[@]}"; do
    fault_cell "$fig" "${row%;*}" "${row#*;}" --quick --no-sci
  done
done

echo "partition_smoke: ${#FIGS[@]} figure(s) survived minority, even and" \
     "crash-overlap splits with exact answers"
