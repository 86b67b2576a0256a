#!/usr/bin/env bash
# Recovery smoke (the ctest `recovery_smoke` entry, docs/RECOVERY.md):
# one figure benchmark with mid-run node crash/restart must
#
#   1. actually exercise the HA path (the trace contains a home promotion
#      and a rejoin),
#   2. reproduce the fault-free answers exactly at every sweep point, all
#      three protocols, and
#   3. be byte-identical on a same-seed rerun (kill-and-recover is as
#      deterministic as a quiet run).
#
# Two phases: the historical single-crash profile (K=1 ring successor), then
# a multi-failure profile — two distinct nodes dying in sequence under K=2
# chain replication — with the same three assertions (each a fault_cell,
# scripts/smoke_lib.sh).
#
# Usage: scripts/recovery_smoke.sh [build-dir]       (default: build)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"
smoke_init recovery_smoke "${1:-build}" bench/fig1_pi

# The crash really engaged HA on the multi-node points.
EVENTS='node_crash home_promoted epoch_bump ha_rejoined node_restart'

# Myrinet sweep only: its --quick points (1, 4, 12 nodes) cover inert
# (1 node: no crashed nodes), mid-cluster and full-cluster crash placements.
# Phase 1: the historical single crash (default replicas=1, ring successor).
fault_cell fig1_pi 'crash2@3ms+2ms,seed=7' "$EVENTS" --quick --no-sci

# Phase 2: sequential double failure under K=2 chain backups. Node 1 dies and
# recovers, then node 2 dies; every zone keeps at least one of its three
# copies alive, so the run must still land on the exact answers.
fault_cell fig1_pi 'replicas=2,crash1@3ms+2ms,crash2@8ms+2ms,seed=7' "$EVENTS" --quick --no-sci

echo "recovery_smoke: fig1 survived single and multi-failure kill-and-recover runs"
