#!/usr/bin/env python3
"""Compare two result sets of the benchmark, standard library only.

A result set is a directory of run outputs named <workload>-<seed>.out,
each holding a run's standard output (the last line is its JSON result),
as benchmark/runs.sh writes them. Runs of the two sets are paired by
(workload, seed), so give both sides the same seeds.

    python3 benchmark/compare.py BENCHMARK.json <parent-dir> <change-dir>

Each (workload, metric) gets its own row: both medians with their
quartiles, the change in the median, the pairs the change wins, and a
verdict under the bounds of BENCHMARK.json:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own quartile spread is wider than the bound,
              so "no worse than the bound" cannot be shown, and not
              every change run beats every parent run
  unchanged   none of the above: within the bound

Metrics without a bound (the per-layer ones of traced runs) are listed
with medians and pair wins only. Any incorrect run is reported first.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    runs = {}
    for f in sorted(glob.glob(os.path.join(path, "*.out"))):
        workload, seed = os.path.basename(f)[: -len(".out")].rsplit("-", 1)
        lines = [l for l in open(f).read().splitlines() if l.strip()]
        if not lines:
            print(f"no result in {f}")
            continue
        res = json.loads(lines[-1])
        if not res.get("correct") or res.get("failed"):
            print(f"INCORRECT run {f}: failed {res.get('failed')} of {res.get('attempted')}")
        runs[(workload, seed)] = res
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent, change, spec, wins, pairs):
    q1, med, q3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if spec is None or med == 0:
        return "-"
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    worse_by = (cmed - med) / med if lower else (med - cmed) / med
    if pairs and wins >= 0.9 * pairs and worse_by < 0 and abs(cmed - med) > q3 - q1:
        return "better"
    if worse_by > bound:
        return "worse"
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if (q3 - q1) / med > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    bench = json.load(open(sys.argv[1]))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(sys.argv[2]), load(sys.argv[3])
    rows = []
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted({s for w, s in parent if w == workload} & {s for w, s in change if w == workload})
        if not seeds:
            continue
        names = sorted(set(parent[(workload, seeds[0])]["metrics"]) & set(change[(workload, seeds[0])]["metrics"]))
        for name in names:
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            unit = parent[(workload, seeds[0])]["metrics"][name]["unit"]
            lower = better.get(name, "lower") == "lower"
            wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
            rows.append((workload, name, unit, pq, cq, delta, wins, len(seeds), verdict(pv, cv, specs.get(name), wins, len(seeds))))
    print(f"{'workload':14} {'metric':34} {'unit':6} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'delta':>8} {'wins':>6}  verdict")
    for w, n, u, pq, cq, d, wins, pairs, v in rows:
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{w:14} {n:34} {u:6} {fmt(pq):>32} {fmt(cq):>32} {d:+7.1f}% {wins:>3}/{pairs:<2}  {v}")


if __name__ == "__main__":
    main()
