#!/usr/bin/env bash
# Fault-injection soak: runs every paper-figure benchmark under several
# deterministic fault profiles (docs/FAULTS.md, docs/RECOVERY.md) and asserts
#
#   1. the computed answers (the CSV `value` column, keyed by
#      cluster/protocol/nodes) are byte-identical to the fault-free run —
#      faults may cost virtual time but must never change results;
#   2. a same-seed rerun of each faulty sweep is byte-identical end to end
#      (timings included, and its streamed trace too) — the injection itself
#      is deterministic; and
#   3. the benchmark binaries themselves exit 0 under every profile — a
#      crash/panic inside a faulty run is a failure of that profile's row,
#      not a silent abort of the whole soak.
#
# Each (figure, profile) pair is one fault_cell (scripts/smoke_lib.sh). The
# figure binaries sweep all three protocols (java_ic, java_pf, hybrid) per
# invocation, so every profile row exercises the adaptive protocol's mode
# switches and home migrations under faults too; fault_cell asserts the
# hybrid rows are actually present in the fault-free run.
#
# Every (figure, profile) pair is driven to completion even after a failure
# (each cell runs in its own subshell); the per-profile pass/fail summary
# table at the end shows which combinations broke, and the script's exit
# code is 1 iff any row failed.
#
# Usage: scripts/soak_faults.sh [build-dir]          (default: build)
#        SOAK_SMOKE=1 scripts/soak_faults.sh         (fig1 only, three
#                                                     profiles; the ctest
#                                                     smoke entry)
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"

FIGS=(fig1_pi fig2_jacobi fig3_barnes fig4_tsp fig5_asp)
PROFILES=(
  'drop2%,seed=7'
  'dup1%,reorder5us,seed=7'
  'drop1%,dup1%,corrupt0.5%,stall0@300us+150us,seed=9'
  # Kill-and-recover: node 2 crashes mid-run and restarts 2ms later; the HA
  # layer (docs/RECOVERY.md) must fail its homes over and still produce the
  # exact fault-free answers. Inert on 1-node sweep points (no node 2).
  'crash2@3ms+2ms,seed=7'
  # Multi-failure: two distinct nodes die in sequence under K=2 chain
  # replication (docs/RECOVERY.md). No zone ever loses all three copies, so
  # the answers must again be exactly fault-free. Windows naming absent
  # nodes are inert on small sweep points.
  'replicas=2,crash1@3ms+2ms,crash2@8ms+2ms,seed=7'
  # Network split (docs/PARTITIONS.md): node 2 — a zone home — is cut off
  # from {0,1,3} for 2ms. Where the silence is corroborated by a cluster
  # majority the survivors promote its zones; elsewhere cross-cut accesses
  # park and drain at the heal. Answers must stay exactly fault-free either
  # way (scripts/partition_smoke.sh checks the trace-level behavior too).
  'partition@3ms+2ms:2|0.1.3,seed=7'
)
if [[ "${SOAK_SMOKE:-0}" == "1" ]]; then
  FIGS=(fig1_pi)
  PROFILES=('drop2%,dup1%,reorder5us,seed=7' 'crash2@3ms+2ms,seed=7'
            'replicas=2,crash1@3ms+2ms,crash2@8ms+2ms,seed=7')
fi
smoke_init soak_faults "${1:-build}" "${FIGS[@]/#/bench/}"

declare -a SUMMARY=()
failed=0
for fig in "${FIGS[@]}"; do
  for prof in "${PROFILES[@]}"; do
    # A failed cell exits only its subshell. Not tested with if/||, which
    # would switch errexit off inside the cell.
    set +e
    (set -e; fault_cell "$fig" "$prof" '' --quick)
    rc=$?
    set -e
    if [[ $rc -eq 0 ]]; then
      SUMMARY+=("$fig;$prof;pass")
    else
      SUMMARY+=("$fig;$prof;FAIL")
      failed=$((failed + 1))
    fi
  done
done

echo
echo "== soak_faults summary =="
printf '%-12s %-52s %s\n' "figure" "profile" "result"
for row in "${SUMMARY[@]}"; do
  IFS=';' read -r f p r <<< "$row"
  printf '%-12s %-52s %s\n' "$f" "$p" "$r"
done

if [[ $failed -ne 0 ]]; then
  fail "$failed of ${#SUMMARY[@]} (figure, profile) cells failed (see above)"
fi
echo "soak_faults: all figures produce fault-free answers under every profile"
