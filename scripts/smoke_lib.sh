# Shared plumbing of the smoke scripts (soak_faults.sh, check_obs.sh and
# the *_smoke.sh scripts); source it, do not run it.
#
# How to write a smoke:
#
#   #!/usr/bin/env bash
#   # <what it checks, as a numbered list: every item is a promise>
#   set -euo pipefail
#   source "$(dirname "$0")/smoke_lib.sh"
#   smoke_init my_smoke "${1:-build}" bench/fig1_pi   # binaries it needs
#   run "$WORK/a.txt" "$BUILD/bench/fig1_pi" --quick  # exits 0 or FAIL
#   answers "$WORK/a.txt" > "$WORK/a.ans"
#   same "answers moved" "$WORK/want.ans" "$WORK/a.ans"
#   echo "my_smoke: OK"
#
# A failed check prints "my_smoke: FAIL — <why>" (after any evidence) and
# exits 1; a missing binary exits 2 before anything runs. A fault-injection
# check is one fault_cell call per (figure, profile). To keep going after a
# failed cell, run it in a subshell with errexit on, outside an if/&&/||
# (which would switch errexit off inside it); see soak_faults.sh.

# smoke_init NAME BUILD BIN...: names the smoke for FAIL lines, cds to the
# repository root (BUILD is taken from there unless absolute), exits 2 naming
# the first BIN not built under BUILD, and makes the scratch dir $WORK,
# removed on exit.
smoke_init() {
  SMOKE="$1"
  BUILD="$2"
  shift 2
  cd "$(dirname "${BASH_SOURCE[0]}")/.."
  local bin
  for bin in "$@"; do
    if [[ ! -x "$BUILD/$bin" ]]; then
      echo "$SMOKE: $BUILD/$bin not built (run cmake --build $BUILD)" >&2
      exit 2
    fi
  done
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
}

# fail WHY...: the smoke's FAIL line, then exit 1.
fail() {
  echo "$SMOKE: FAIL — $*" >&2
  exit 1
}

# run OUT CMD...: runs CMD with stdout to OUT and stderr to OUT.err; if it
# exits non-zero, shows the tail of both and fails.
run() {
  local out="$1"
  shift
  local rc=0
  "$@" > "$out" 2> "$out.err" || rc=$?
  if [[ $rc -ne 0 ]]; then
    tail -n 20 "$out" | sed 's/^/    stdout: /' >&2
    tail -n 20 "$out.err" | sed 's/^/    stderr: /' >&2
    fail "'$*' exited $rc"
  fi
}

# answers FILE: "cluster,protocol,nodes,value" of each row of a figure
# binary's CSV block — what a run computed, without its timings.
answers() {
  awk -F, '/^fig[0-9]+,/ { print $2 "," $3 "," $4 "," $6 }' "$1"
}

# same WHY A B: fails with WHY, after the first lines of the diff, unless A
# and B are byte-identical once artifact-path lines ("trace streamed: /tmp/…
# (N events, …)", "metrics written: …") are stripped from both.
same() {
  local why="$1" a="$2" b="$3"
  cmp -s "$a" "$b" && return 0
  sed -E '/ (written|streamed): /d' "$a" > "$a.same" || fail "$why"
  sed -E '/ (written|streamed): /d' "$b" > "$b.same" || fail "$why"
  if ! cmp -s "$a.same" "$b.same"; then
    diff "$a.same" "$b.same" | head -n 20 >&2 || true
    fail "$why"
  fi
}

# trace_has WHAT TRACE EVENT...: fails unless the trace JSON TRACE holds at
# least one event of each named kind; WHAT says which run wrote it.
trace_has() {
  local what="$1" trace="$2" ev
  shift 2
  for ev in "$@"; do
    grep -q "\"$ev\"" "$trace" || fail "$what: trace has no '$ev' event"
  done
}

# fault_cell FIG PROFILE EVENTS ARGS...: one fault-injection cell. Runs
# bench/FIG ARGS under --fault-profile=PROFILE with a streamed trace (it
# covers every run of the sweep) and fails unless
#   1. the binary exits 0 and the trace holds every event kind named in
#      EVENTS (space-separated, may be empty);
#   2. the answers equal the fault-free run's: FIG ARGS, run on the first
#      cell of FIG (a script passes the same ARGS with every FIG) and
#      checked to carry hybrid rows, so the protocol matrix cannot shrink
#      unseen; and
#   3. a same-seed rerun gives byte-identical stdout and trace.
fault_cell() {
  local fig="$1" profile="$2" events="$3"
  shift 3
  local bin="$BUILD/bench/$fig" base="$WORK/$fig.base"
  local cell="$WORK/$fig.${profile//[^[:alnum:]]/_}" what="$fig under '$profile'"
  if [[ ! -e "$base.ans" ]]; then
    run "$base.txt" "$bin" "$@"
    answers "$base.txt" > "$base.rows"
    grep -q ',hybrid,' "$base.rows" || fail "$fig fault-free run has no hybrid rows"
    mv "$base.rows" "$base.ans"
  fi
  local args=("$@" --fault-profile="$profile")
  run "$cell.txt" "$bin" "${args[@]}" --trace-out "$cell.trace.json"
  trace_has "$what" "$cell.trace.json" $events
  answers "$cell.txt" > "$cell.ans"
  same "$what: answers differ from the fault-free run" "$base.ans" "$cell.ans"
  run "$cell.rerun.txt" "$bin" "${args[@]}" --trace-out "$cell.rerun.trace.json"
  same "$what: same-seed rerun stdout not byte-identical" "$cell.txt" "$cell.rerun.txt"
  same "$what: same-seed rerun trace not byte-identical" \
       "$cell.trace.json" "$cell.rerun.trace.json"
  # A full sweep's streamed trace runs to ~100 MB: keep one cell's at a time.
  rm -f "$cell.trace.json" "$cell.rerun.trace.json"
  echo "$SMOKE: ok — $what ($(wc -l < "$base.ans") points, answers exact, rerun identical)"
}
