#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep the raw results.

    python3 e2ebench/sweep.py --out FILE [--workloads a,b] [--seeds 1-10]
                              [--seconds S] [--trace 0|1]

Appends one JSON line per run ({"workload", "seed", "trace", "result"})
to FILE, then prints per workload and metric the median and the
quartile spread (Q3 - Q1) / median of the values, as the acceptance
rule of README.md reads them. Result files are the input of compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path):
    """{(workload, trace): [record, ...]} from a result file."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def summarize(path):
    for (workload, trace), recs in sorted(load(path).items()):
        failed = [r["result"]["failed"] / r["result"]["attempted"] for r in recs]
        print("%s trace=%d: %d runs, failed share %s" % (
            workload, trace, len(recs), sorted(set(failed))))
        metrics = recs[0]["result"]["metrics"]
        for name in metrics:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            if len(vals) >= 2:
                med, s = spread(vals)
                print("  %-40s median %14.6f  spread %6.3f" % (name, med, s))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=None,
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    for seed in seed_range(a.seeds):
        for workload in workloads:
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(a.trace)],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            last = r.stdout.decode().strip().splitlines()[-1:]
            if r.returncode != 0:
                print("run %s seed %d exited %d" % (workload, seed, r.returncode),
                      file=sys.stderr)
            if not last:
                continue
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": a.trace,
                                    "result": json.loads(last[0])}) + "\n")
            print("done %s seed %d" % (workload, seed), file=sys.stderr, flush=True)
    summarize(a.out)


if __name__ == "__main__":
    main()
