#!/usr/bin/env python3
"""A/B verdicts for two sets of tqt_bench runs (Python standard library only).

    compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the per-run records run.sh writes (untraced runs of the
parent commit and of the change, made as interleaved pairs: parent, change,
change, parent, ...). Records pair up in run order, which their file names
(…-<time>.json) encode. For every workload x end-to-end metric the script
prints each side's median and quartiles, the share of pairs the change won
(ties count for neither side) and a verdict:

  improved    the change won at least 9 of 10 pairs and its median differs
              from the parent's by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own quartile distance is wider than the bound,
              and not every change run beats every parent run
  no worse    none of the above

Exits 1 when any pairing regressed.
"""
import argparse
import json
import pathlib
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        runs.setdefault(record["workload"], []).append(record["result"]["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, lower_better, bound):
    q1p, medp, q3p = quartiles(parent)
    _, medc, _ = quartiles(change)
    better = (lambda c, p: c < p) if lower_better else (lambda c, p: c > p)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = (medc - medp) / medp if lower_better else (medp - medc) / medp
    if win_share >= 0.9 and abs(medc - medp) > q3p - q1p:
        return "improved", win_share
    if (q3p - q1p) / medp > bound:
        all_better = all(better(c, p) for c in change for p in parent)
        return ("no worse" if all_better else "unresolved"), win_share
    if worse_by > bound:
        return "regressed", win_share
    return "no worse", win_share


def main():
    here = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(here.parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)
    header = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "pairs", "wins", "verdict")
    print("%-16s %-12s %-32s %-32s %5s %5s  %s" % header)
    regressed = False
    for w in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        if not p_runs or not c_runs:
            print("%-16s (no runs on %s)" % (w, "parent" if not p_runs else "change"))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name]["value"] for r in p_runs if name in r]
            c = [r[name]["value"] for r in c_runs if name in r]
            if not p or not c:
                continue
            v, win_share = verdict(p, c, m["better"] == "lower", m["bound"])
            regressed |= v == "regressed"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-16s %-12s %-32s %-32s %5d %5.2f  %s" % (
                w, name, fmt(quartiles(p)), fmt(quartiles(c)), min(len(p), len(c)), win_share, v))
        pairs = min(len(p_runs), len(c_runs))
        if pairs < 10:
            print("%-16s only %d pairs; the rule asks for at least 10" % (w, pairs))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
