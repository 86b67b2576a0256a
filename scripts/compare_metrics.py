#!/usr/bin/env python3
"""A/B diff of two hyp-metrics-v1 JSON files (--metrics-out of any bench binary).

Pairs experiment points by (cluster, protocol, nodes), then reports, per pair:

  * the answer (`value`) — must agree bitwise-as-printed unless --value-tol;
  * virtual elapsed time — relative delta against --threshold;
  * every counter present on either side — relative delta against --threshold
    (a counter absent on one side reads as 0);
  * the races_detected counter (--race-detect runs, docs/RACES.md) — a
    candidate reporting MORE races than its baseline fails outright,
    regardless of --threshold and --ignore (a race verdict is not a drift);
  * histogram count/sum drift (informational unless --strict-histograms).

Exit codes:  0 all deltas within threshold,  1 threshold exceeded or answers
diverged or points unmatched,  2 usage / schema error.

Typical uses:
  scripts/compare_metrics.py base.json opt.json --threshold 5
      did the optimisation change any counter or timing by more than 5%?
  scripts/compare_metrics.py quiet.json faulty.json --ignore 'net_|retrans|ack|dup|rpc_'
      faults may retry traffic, but answers and non-transport counters must hold.
"""

import argparse
import json
import re
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"compare_metrics: cannot read {path}: {e}")
    if doc.get("schema") != "hyp-metrics-v1":
        sys.exit(f"compare_metrics: {path}: schema is {doc.get('schema')!r}, "
                 "expected 'hyp-metrics-v1'")
    return doc


def key(point):
    return (point.get("cluster", ""), point.get("protocol", ""),
            point.get("nodes", -1), point.get("label", ""))


def key_str(k):
    cluster, protocol, nodes, label = k
    parts = [p for p in (cluster, protocol) if p]
    if nodes >= 0:
        parts.append(f"n={nodes}")
    if label:
        parts.append(label)
    return "/".join(parts) if parts else "(unlabelled)"


def rel_delta(a, b):
    if a == b:
        return 0.0
    if a == 0:
        return float("inf")
    return abs(b - a) / abs(a) * 100.0


def fmt_delta(d):
    return "new" if d == float("inf") else f"{d:+.2f}%".replace("+", "")


# --- serve SLO rows (docs/SERVING.md): direction-aware counter gating -------
#
# The serving harness publishes its SLO summary as named counters. They are
# performance verdicts, not event tallies, so they gate by direction:
# latency quantiles fail only when the candidate is *slower*, throughput only
# when it *drops* — improvements never fail, whatever their magnitude.
SERVE_FIELDS = {
    "serve_p50_us": "down",
    "serve_p99_us": "down",
    "serve_p999_us": "down",
    "serve_throughput_ops": "up",
    # Adaptive-protocol decision tallies (docs/PROTOCOLS.md §hybrid): churn
    # metrics, not event counts. A candidate that switches detection modes or
    # migrates homes MORE than its baseline is thrashing — that gates like a
    # latency rise; fewer decisions (a steadier policy) never fails. The same
    # goes for crash-forced migration reverts.
    "dsm_mode_switches": "down",
    "dsm_home_migrations": "down",
    "dsm_migrations_reverted": "down",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="baseline hyp-metrics-v1 JSON (the 'A' side)")
    ap.add_argument("other", help="candidate hyp-metrics-v1 JSON (the 'B' side)")
    ap.add_argument("--threshold", type=float, default=0.0, metavar="PCT",
                    help="max allowed relative delta in %% for elapsed time and "
                         "counters (default 0: any drift fails)")
    ap.add_argument("--value-tol", type=float, default=0.0, metavar="ABS",
                    help="absolute tolerance for the `value` answers (default 0)")
    ap.add_argument("--ignore", default="", metavar="REGEX",
                    help="counters matching this regex are reported but never fail")
    ap.add_argument("--strict-histograms", action="store_true",
                    help="histogram count/sum drift beyond threshold also fails")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="print only failures and the final verdict")
    args = ap.parse_args()

    ignore = re.compile(args.ignore) if args.ignore else None
    a_doc, b_doc = load(args.base), load(args.other)
    a_pts = {key(p): p for p in a_doc.get("points", [])}
    b_pts = {key(p): p for p in b_doc.get("points", [])}

    failures = []
    rows = []

    for k in sorted(set(a_pts) | set(b_pts), key=key_str):
        name = key_str(k)
        if k not in a_pts or k not in b_pts:
            side = args.other if k not in b_pts else args.base
            failures.append(f"{name}: point missing from {side}")
            continue
        pa, pb = a_pts[k], b_pts[k]

        va, vb = pa.get("value"), pb.get("value")
        if va is not None or vb is not None:
            if va is None or vb is None or abs(va - vb) > args.value_tol:
                failures.append(f"{name}: value {va} -> {vb} (answers diverged)")

        ea, eb = pa.get("elapsed_ps", 0), pb.get("elapsed_ps", 0)
        d = rel_delta(ea, eb)
        rows.append((name, "elapsed_ps", ea, eb, d))
        if d > args.threshold:
            failures.append(f"{name}: elapsed_ps {ea} -> {eb} ({fmt_delta(d)} "
                            f"> {args.threshold}%)")

        ca, cb = pa.get("counters", {}), pb.get("counters", {})

        # Race verdicts are gated separately and unconditionally: new data
        # races in the candidate fail no matter what --threshold or --ignore
        # says (fewer races than the baseline is fine).
        ra, rb = ca.get("races_detected", 0), cb.get("races_detected", 0)
        if ra != rb:
            rows.append((name, "races_detected", ra, rb, rel_delta(ra, rb)))
        if rb > ra:
            failures.append(f"{name}: races_detected {ra} -> {rb} "
                            "(candidate introduces data races; never tolerated)")

        # Partition-HA verdicts get the same unconditional treatment
        # (docs/PARTITIONS.md): an epoch-fenced reject or a quorum read
        # materializing where the baseline had none means stale-authority
        # traffic reached a handler, or a home was suspected, in a run that
        # is supposed to be partition-free — a split-brain symptom, not a
        # tolerable drift.
        for c in ("ha_fenced_rejects", "ha_quorum_reads"):
            x, y = ca.get(c, 0), cb.get(c, 0)
            if x == 0 and y > 0:
                rows.append((name, c, x, y, rel_delta(x, y)))
                failures.append(f"{name}: counter {c} 0 -> {y} (partition HA "
                                "engaged where the baseline saw none; never "
                                "tolerated)")

        for c in sorted(set(ca) | set(cb)):
            if c == "races_detected":
                continue
            if c in ("ha_fenced_rejects", "ha_quorum_reads") and \
                    ca.get(c, 0) == 0 and cb.get(c, 0) > 0:
                continue  # already failed unconditionally above
            x, y = ca.get(c, 0), cb.get(c, 0)
            if x == y:
                continue
            d = rel_delta(x, y)
            rows.append((name, c, x, y, d))
            if ignore and ignore.search(c):
                continue
            if c in SERVE_FIELDS:
                if x == 0:
                    continue  # row new in the candidate: informational
                direction = SERVE_FIELDS[c]
                regressed = ((x - y) / x * 100.0 if direction == "up"
                             else (y - x) / x * 100.0)
                if regressed > args.threshold:
                    worse = "dropped" if direction == "up" else "rose"
                    failures.append(f"{name}: counter {c} {x} -> {y} "
                                    f"({worse} {regressed:+.2f}% "
                                    f"> {args.threshold}%)")
                continue
            if d > args.threshold:
                failures.append(f"{name}: counter {c} {x} -> {y} "
                                f"({fmt_delta(d)} > {args.threshold}%)")

        ha, hb = pa.get("histograms", {}), pb.get("histograms", {})
        for h in sorted(set(ha) | set(hb)):
            for field in ("count", "sum"):
                x = ha.get(h, {}).get(field, 0)
                y = hb.get(h, {}).get(field, 0)
                if x == y:
                    continue
                d = rel_delta(x, y)
                rows.append((name, f"{h}.{field}", x, y, d))
                if args.strict_histograms and d > args.threshold and not (
                        ignore and ignore.search(h)):
                    failures.append(f"{name}: histogram {h}.{field} {x} -> {y} "
                                    f"({fmt_delta(d)} > {args.threshold}%)")

    if rows and not args.quiet:
        w = max(len(r[0]) for r in rows)
        wm = max(len(r[1]) for r in rows)
        print(f"{'point':<{w}}  {'metric':<{wm}}  {'A':>14}  {'B':>14}  delta")
        for name, metric, x, y, d in rows:
            print(f"{name:<{w}}  {metric:<{wm}}  {x:>14}  {y:>14}  {fmt_delta(d)}")
    elif not rows and not args.quiet:
        print(f"identical: every compared metric matches across "
              f"{len(a_pts)} point(s)")

    if failures:
        print(f"\ncompare_metrics: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"compare_metrics: OK ({len(a_pts)} points, threshold "
          f"{args.threshold}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
