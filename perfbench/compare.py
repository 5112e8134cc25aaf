"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result-record file written by run.py (under
.perfbench/results) or a directory of them. For every workload and metric
present on both sides the report gives each side's median and quartiles,
the ratio of the medians with its base, how many seed-matched pairs each
side won, and a verdict by the bounds in BENCHMARK.json:

- improved: the new side wins at least 9 in 10 pairs and the medians differ,
  in its favour, by more than the base side's interquartile distance;
- unresolved: the base side's spread (interquartile distance over median)
  exceeds the bound, unless every new run beats every base run;
- worse: the new median is worse than the base median by more than the bound;
- no worse: otherwise.

Per-layer metrics carry no bound; they get the figures but no verdict.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(spec):
    paths = sorted(glob.glob(os.path.join(spec, "*.json"))) if os.path.isdir(spec) else [spec]
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound, new_wins, n_pairs):
    sign = 1.0 if better == "lower" else -1.0
    q1, mb, q3 = quartiles(base)
    mn = statistics.median(new)
    if n_pairs and new_wins >= 0.9 * n_pairs and sign * (mb - mn) > q3 - q1:
        return "improved"
    spread = (q3 - q1) / abs(mb) if mb else float("inf")
    every_new_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not every_new_better:
        return "unresolved"
    if mb and sign * (mn - mb) / abs(mb) > bound:
        return "worse"
    return "no worse"


def compare(base_records, new_records, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    grouped = defaultdict(lambda: ([], []))
    for side, records in ((0, base_records), (1, new_records)):
        for rec in records:
            for name, metric in rec["metrics"].items():
                grouped[(rec["workload"], name)][side].append((rec["seed"], metric["value"]))
    rows = []
    for (workload, name), (base, new) in sorted(grouped.items()):
        if not base or not new:
            continue
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        new_by_seed = defaultdict(list)
        for seed, value in new:
            new_by_seed[seed].append(value)
        base_wins = new_wins = n_pairs = 0
        for seed, value in base:
            if new_by_seed.get(seed):
                other = new_by_seed[seed].pop(0)
                n_pairs += 1
                new_wins += sign * (other - value) < 0
                base_wins += sign * (value - other) < 0
        b = [v for _, v in base]
        n = [v for _, v in new]
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        bound = bounds.get(name)
        rows.append({
            "workload": workload, "metric": name,
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2], "runs": len(b)},
            "new": {"q1": nq[0], "median": nq[1], "q3": nq[2], "runs": len(n)},
            "ratio": ratio, "pairs": n_pairs, "base_wins": base_wins, "new_wins": new_wins,
            "verdict": (verdict(b, n, bound["better"], bound["bound"], new_wins, n_pairs)
                        if bound else "-"),
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(load(args.base), load(args.new), spec)
    print(f"{'workload':15} {'metric':40} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'new/base':>9} {'wins b:n':>9}  verdict")
    for r in rows:
        sides = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]" for s in (r["base"], r["new"])]
        print(f"{r['workload']:15} {r['metric']:40} {sides[0]:>34} {sides[1]:>34} "
              f"{r['ratio']:>9.4f} {r['base_wins']:>4}:{r['new_wins']:<4}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
