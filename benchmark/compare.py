#!/usr/bin/env python3
"""Compares benchmark result sets (benchmark/README.md, "Comparing runs").

Every unit, better-direction and bound comes from BENCHMARK.json at the
repository root (or --spec). The only metric names here are SERVING_VIEW.

  compare.py agree A B
      A and B are result directories of benchmark/run.sh (or two result
      files) from the same code, seed and settings (traced or not). They
      agree when, per workload:
        * virt_digest and the failed/attempted share are identical;
        * every metric on the virtual clock (unit virt_*) and every count is
          identical;
        * every other end-to-end metric differs by at most its bound.

  compare.py ab PARENT CHANGE
      PARENT and CHANGE each hold one result directory per run (at least
      ten each, run alternately; pairs are matched in name order). Per
      workload it compares the failed/attempted share, every end-to-end
      metric and, when every run was traced, the SERVING_VIEW metrics. It
      reports each side's median and quartiles and a verdict.
      A host-clock metric gets:
        better      the change wins >= 9/10 of the pairs (ties count for
                    neither) and the medians differ by more than the
                    parent's interquartile range;
        worse       the change's median is worse than the parent's by more
                    than the bound;
        unresolved  either side's spread (IQR / median) exceeds the bound,
                    unless every change run beats every parent run;
        unchanged   otherwise.
      A virtual-clock metric (unit virt_*) repeats exactly for one seed, so
      any difference of the medians is better or worse, whatever the bound.
      The failed share (mean over the runs) is worse if it is any higher.

Exit status: 0 = agree / no metric worse, 1 = disagreement / a metric worse,
2 = usage or input error.
"""

import argparse
import json
import math
import os
import statistics
import sys

SCRIPT_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(SCRIPT_DIR, os.pardir, "BENCHMARK.json")

# Name prefixes of the serving end of the end-to-end view. They are listed
# per layer in BENCHMARK.json because they are 0 on the batch workloads, but
# `ab` gates them like end-to-end metrics.
SERVING_VIEW = ("p999_us.", "max_rate_ops.")


def fail_usage(msg):
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"cannot read {path}: {e}")


def load_spec(path):
    spec = load_json(path)
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for m in spec.get(section, []):
            metrics[m["name"]] = dict(m, section=section)
    return metrics


def load_results(path):
    """Returns {workload: result} for a result file or a directory of them."""
    if os.path.isfile(path):
        doc = load_json(path)
        return {doc["workload"]: doc}
    if not os.path.isdir(path):
        fail_usage(f"{path} is neither a result file nor a directory")
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".json") and not name.endswith(".trace.json"):
            doc = load_json(os.path.join(path, name))
            if doc.get("schema") == "hyp-benchmark-v1":
                out[doc["workload"]] = doc
    if not out:
        fail_usage(f"{path} holds no hyp-benchmark-v1 results")
    return out


def values(doc):
    """All metric values of one result, end-to-end and (traced) per-layer."""
    vals = {}
    for section in ("end_to_end", "per_layer"):
        for name, m in doc.get(section, {}).items():
            vals[name] = m
    return vals


def virtual(spec_entry):
    return spec_entry["unit"].startswith("virt_")


def exact(spec_entry):
    return virtual(spec_entry) or spec_entry["unit"] == "count"


def worse_by(spec_entry, base, new):
    """Relative amount by which `new` is worse than `base` (negative = better)."""
    d = new - base if spec_entry["better"] == "lower" else base - new
    if base == 0:
        return math.copysign(math.inf, d) if d else 0.0
    return d / abs(base)


def failed_share(doc):
    return doc["failed"] / doc["attempted"] if doc.get("attempted") else 0.0


def agree(args, spec):
    a, b = load_results(args.a), load_results(args.b)
    common = sorted(set(a) & set(b))
    if not common:
        fail_usage("the two result sets share no workload")
    bad = 0
    for w in common:
        da, db = a[w], b[w]
        rows = []
        if da.get("seed") != db.get("seed"):
            rows.append(("seed", da.get("seed"), db.get("seed"), "-", "DIFFERENT"))
        for name, x, y in (("virt_digest", da.get("virt_digest"), db.get("virt_digest")),
                           ("failed/attempted", failed_share(da), failed_share(db))):
            rows.append((name, x, y, "exact", "ok" if x == y else "DIFFERENT"))
        va, vb = values(da), values(db)
        for name, entry in spec.items():
            if name not in va or name not in vb:
                if entry["section"] == "end_to_end":
                    rows.append((name, va.get(name, {}).get("value"),
                                 vb.get(name, {}).get("value"), "-", "MISSING"))
                continue
            for side in (va[name], vb[name]):
                if side["unit"] != entry["unit"]:
                    rows.append((name, side["unit"], entry["unit"], "unit", "UNIT MISMATCH"))
            x, y = va[name]["value"], vb[name]["value"]
            if exact(entry):
                rows.append((name, x, y, "exact", "ok" if x == y else "DIFFERENT"))
            elif entry["section"] == "end_to_end":
                bound = entry["bound"]
                hi, lo = max(x, y), min(x, y)
                delta = float("inf") if lo <= 0 else hi / lo - 1.0
                rows.append((name, x, y, f"{bound:.0%}",
                             "ok" if delta <= bound else f"DIFFER {delta:.1%}"))
        print(f"== {w} (seed {da.get('seed')})")
        for name, x, y, bound, verdict in rows:
            print(f"  {name:44s} {fmt(x):>18s} {fmt(y):>18s} {bound:>6s}  {verdict}")
            if verdict != "ok":
                bad += 1
    print(f"agree: {'PASS' if bad == 0 else f'FAIL ({bad} disagreements)'}")
    return 0 if bad == 0 else 1


def fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def run_dirs(path):
    if not os.path.isdir(path):
        fail_usage(f"{path} is not a directory of run directories")
    dirs = [os.path.join(path, d) for d in sorted(os.listdir(path))
            if os.path.isdir(os.path.join(path, d))]
    return [load_results(d) for d in dirs]


def ab(args, spec):
    parent, change = run_dirs(args.parent), run_dirs(args.change)
    pairs = min(len(parent), len(change))
    if pairs < 10:
        fail_usage(f"need at least 10 runs per side, got {len(parent)} and {len(change)}")
    parent, change = parent[:pairs], change[:pairs]
    workloads = sorted(set.intersection(*(set(r) for r in parent + change)))
    worse = 0
    for w in workloads:
        print(f"== {w} ({pairs} pairs)")
        print(f"  {'metric':24s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'wins':>6s} {'bound':>6s}  verdict")
        p = [failed_share(r[w]) for r in parent]
        c = [failed_share(r[w]) for r in change]
        verdict = exact_verdict({"better": "lower"}, statistics.fmean(p), statistics.fmean(c))
        worse += verdict == "worse"
        print_row("failed/attempted", p, c, None, "exact", verdict)
        vp, vc = [values(r[w]) for r in parent], [values(r[w]) for r in change]
        for name, entry in spec.items():
            present = all(name in v for v in vp + vc)  # per-layer ones only when traced
            if entry["section"] != "end_to_end" and not (present and name.startswith(SERVING_VIEW)):
                continue
            p = [v[name]["value"] for v in vp]
            c = [v[name]["value"] for v in vc]
            if virtual(entry):
                verdict = exact_verdict(entry, statistics.median(p), statistics.median(c))
                wins, bound = None, "exact"
            else:
                verdict, wins, bound = host_verdict(entry, p, c)
            worse += verdict == "worse"
            print_row(name, p, c, wins, bound, verdict)
    return 1 if worse else 0


def exact_verdict(entry, base, new):
    d = worse_by(entry, base, new)
    return "worse" if d > 0 else "better" if d < 0 else "unchanged"


def host_verdict(entry, p, c):
    """(verdict, pairs won, bound) for a metric with run-to-run noise."""
    pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
    pm, cm = statistics.median(p), statistics.median(c)
    lower = entry["better"] == "lower"

    def beats(x, y):
        return x < y if lower else x > y

    wins = sum(1 for x, y in zip(c, p) if beats(x, y))
    bound = entry["bound"]
    spread = max((pq[2] - pq[0]) / pm if pm else 0.0, (cq[2] - cq[0]) / cm if cm else 0.0)
    if all(beats(x, y) for x in c for y in p):
        verdict = "better"
    elif spread > bound:
        verdict = "unresolved"
    elif wins >= 0.9 * len(p) and abs(cm - pm) > pq[2] - pq[0]:
        verdict = "better"
    elif worse_by(entry, pm, cm) > bound:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return verdict, wins, f"{bound:.0%}"


def print_row(name, p, c, wins, bound, verdict):
    pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
    won = "-" if wins is None else f"{wins}/{len(p)}"
    print(f"  {name:24s} {statistics.median(p):12.6g} [{pq[0]:9.6g}, {pq[2]:9.6g}]"
          f" {statistics.median(c):12.6g} [{cq[0]:9.6g}, {cq[2]:9.6g}] {won:>6s}"
          f" {bound:>6s}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spec", default=DEFAULT_SPEC, help="BENCHMARK.json to read metrics from")
    sub = ap.add_subparsers(dest="cmd", required=True)
    g = sub.add_parser("agree", help="two result sets of the same code and seed")
    g.add_argument("a")
    g.add_argument("b")
    g = sub.add_parser("ab", help="parent vs change, >= 10 runs each")
    g.add_argument("parent")
    g.add_argument("change")
    args = ap.parse_args()
    spec = load_spec(args.spec)
    sys.exit(agree(args, spec) if args.cmd == "agree" else ab(args, spec))


if __name__ == "__main__":
    main()
