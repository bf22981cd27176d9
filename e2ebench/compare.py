#!/usr/bin/env python3
"""Compare two result sets of the same workloads (from sweep.py).

    python3 e2ebench/compare.py PARENT.jsonl CHANGE.jsonl

For every (workload, metric) it prints each side's median and
quartiles, and the share of pairs the change won; runs pair up by seed.
The verdict follows one rule:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither side) and its median beats the parent's by more
              than the parent's interquartile spread Q3 - Q1;
  worse       the same with the sides swapped;
  unresolved  anything else.

The better direction of each metric comes from BENCHMARK.json. The
failed-operation share of each side is printed per workload, since a
gain does not count when more operations fail.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from sweep import load  # noqa: E402


def directions():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, lower_better):
    """(share of pairs the change won, verdict) for seed-paired values."""
    sign = -1 if lower_better else 1
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    lost = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, pmed, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - pmed)
    if won >= 0.9 * len(pairs) and gap > q3 - q1:
        return won / len(pairs), "better"
    if lost >= 0.9 * len(pairs) and -gap > q3 - q1:
        return won / len(pairs), "worse"
    return won / len(pairs), "unresolved"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    better = directions()
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    fmt = "%-11s %-38s %30s %30s %6s  %s"
    print(fmt % ("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                 "won", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        p_runs = {r["seed"]: r["result"] for r in parent[key]}
        c_runs = {r["seed"]: r["result"] for r in change[key]}
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            share = sorted({runs[s]["failed"] / runs[s]["attempted"] for s in seeds})
            print("%-11s failed share (%s): %s" % (workload, side, share))
        for name in p_runs[seeds[0]]["metrics"]:
            if name not in better:
                continue
            pv = [p_runs[s]["metrics"][name]["value"] for s in seeds]
            cv = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            won, v = verdict(pv, cv, better[name] == "lower")
            print(fmt % (workload, name,
                         "%.4g/%.4g/%.4g" % quartiles(pv), "%.4g/%.4g/%.4g" % quartiles(cv),
                         "%.0f%%" % (100 * won), v))


if __name__ == "__main__":
    main()
