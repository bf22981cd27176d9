#!/usr/bin/env python3
"""The end-to-end benchmark of pardatalog (see README.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds datalogp, datalogd and
the probe with dune, writes the seeded inputs under e2ebench/_out/,
then spends the run's seconds on two sections:

  batch   datalogp queries on the four executors (run; par --runtime
          sim|domain|net), each timed from spawn to exit with its answer
          text read, and each answer checked against the oracle;
  serve   datalogd with two closed-loop clients (probe serve).

Every time and rate is reported at a fixed reference speed of the host,
measured between the rounds and passes with probe/calib.ml.

With --trace 0 the last stdout line is the JSON result with every
end-to-end metric; with --trace 1 it carries every per-layer metric,
from the traced in-process replay (probe trace), and the run also
writes a Chrome trace and the per-layer table beside its inputs.
Exits nonzero on any wrong answer.
"""

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import inputs  # noqa: E402

BIN = os.path.join(ROOT, "_build", "default")
DATALOGP = os.path.join(BIN, "bin", "datalogp.exe")
DATALOGD = os.path.join(BIN, "bin", "datalogd.exe")
PROBE = os.path.join(BIN, "e2ebench", "probe", "probe.exe")
CALIB = os.path.join(BIN, "e2ebench", "probe", "calib.exe")

# N=2 paper processors under the general scheme (the CLI default,
# spelled out) on every executor: one per core of a 2-core machine, and
# 2 worker processes on the net runtime.
PAR = ["-n", "2", "--scheme", "general"]
EXECUTORS = [
    ("seq", ["run"]),
    ("sim", ["par"] + PAR + ["--runtime", "sim"]),
    ("domains", ["par"] + PAR + ["--runtime", "domain", "--domains", "2"]),
    ("net", ["par"] + PAR + ["--runtime", "net", "--procs", "2"]),
]
SETUPS = 7          # daemon launches per run; setup_s is their median
TRACE_REPS = 3      # in-process replays per executor in the traced run

# Host speed (README.md, "Host speed"). The host's speed drifts by up
# to 1.7x within a minute, with no steal, so every time and rate is
# reported at a fixed reference speed: the measured value scaled by
# REF_S over the median makespan of CALIB_PROCS side-by-side runs of
# `calib CALIB_REPS`, taken between the rounds (passes) it scales.
CALIB_REPS = 4
CALIB_PROCS = 2
REF_S = 0.15

END_TO_END = [
    ("query_seq_s", "s"), ("query_sim_s", "s"), ("query_domains_s", "s"),
    ("query_net_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
    ("serve_ops_per_s", "1/s"), ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"), ("live_read_p50_ms", "ms"),
    ("live_read_p90_ms", "ms"), ("scratch_query_p50_ms", "ms"),
]

PHASES = ["sending", "retransmission", "delivery", "receiving", "processing",
          "checkpointing", "termination-test"]
VERBS = ["update", "retract", "query_live", "query_scratch"]
STATS_COUNTERS = ["accepted", "rejected_busy", "queries_ok", "queries_partial",
                  "updates_ok", "replays", "retry_inflight", "protocol_errors"]
PER_LAYER = (
    [("parser.program_s", "s"), ("parser.facts_s", "s"),
     ("strategy.rewrite_s", "s"),
     ("seminaive.eval_s", "s"), ("seminaive.iterations", "count"),
     ("seminaive.firings", "count"), ("seminaive.duplicate_firings", "count"),
     ("seminaive.join_probes", "count"), ("seminaive.minor_words", "words"),
     ("sim_runtime.run_s", "s"), ("sim_runtime.rounds", "count"),
     ("sim_runtime.messages", "count")]
    + [("sim_runtime.phase.%s_s" % p, "s") for p in PHASES]
    + [("domain_runtime.run_s", "s")]
    + [("domain_runtime.phase.%s_s" % p, "s") for p in PHASES]
    + [("domain_runtime.local_rounds", "count"),
       ("domain_runtime.messages", "count"),
       ("domain_runtime.duplicate_firings", "count"),
       ("domain_runtime.pooled_tuples", "count"),
       ("domain_runtime.bulk_pushes", "count"),
       ("domain_runtime.coalescing", "ratio"),
       ("net_runtime.run_s", "s"), ("net_runtime.messages", "count"),
       ("net_runtime.bytes_sent", "bytes"),
       ("net_runtime.bytes_received", "bytes"),
       ("net_runtime.heartbeat_misses", "count"),
       ("net_runtime.worker_restarts", "count"),
       ("net_runtime.wire_retransmits", "count"),
       ("format.answers_s", "s"), ("format.bytes", "bytes"),
       ("session.open_s", "s"), ("session.apply_ms", "ms"),
       ("session.model_ms", "ms"), ("session.query_ms", "ms"),
       ("live.overdeleted", "count"), ("live.rederived", "count"),
       ("live.incr_firings", "count")]
    + [("server.%s_rtt_ms" % v, "ms") for v in VERBS]
    + [("server.overhead_%s_ms" % v, "ms") for v in VERBS]
    + [("server.stats.%s" % c, "count") for c in STATS_COUNTERS]
    + [("unattributed.%s_s" % e, "s") for e, _ in EXECUTORS]
    + [("host.calib_s", "s")]
)

# Which traced layers make up one datalogp query on each executor; the
# remainder of the untraced median is unattributed (process start,
# file reads, writing the answer text).
LAYERS_OF = {
    "seq": ["seminaive.eval_s"],
    "sim": ["strategy.rewrite_s", "sim_runtime.run_s"],
    "domains": ["strategy.rewrite_s", "domain_runtime.run_s"],
    "net": ["strategy.rewrite_s", "net_runtime.run_s"],
}
COMMON_LAYERS = ["parser.program_s", "parser.facts_s", "format.answers_s"]

# The plan's op kind behind each server verb.
VERB_KIND = {"update": "UPDATE", "retract": "RETRACT", "query_live": "LIVE",
             "query_scratch": "SCRATCH"}


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


# Everything the programs write stays inside the checkout: the net
# runtime puts its sockets in TMPDIR, relative to the checkout root so
# that the socket paths stay short, and dune keeps no shared cache.
OUT = os.path.join("e2ebench", "_out")
ENV = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"), DUNE_CACHE="disabled")


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("%s/%s is missing: run from a pardatalog source checkout" % (ROOT, need))
            sys.exit(2)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    dune = shutil.which("dune") or next(iter(sorted(glob.glob(
        os.path.expanduser("~/.opam/*/bin/dune")))), None)
    if dune is None:
        log("dune not found")
        sys.exit(2)
    env = dict(ENV, PATH=os.path.dirname(dune) + os.pathsep + ENV.get("PATH", ""))
    r = subprocess.run(
        [dune, "build", "--root", ".", "bin/datalogp.exe", "bin/datalogd.exe",
         "e2ebench/probe/probe.exe", "e2ebench/probe/calib.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)


class Ledger:
    """Operations attempted and failed; the first failures are logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                log("WRONG: " + what)


HEADER = re.compile(r"^anc/2 \((\d+) tuples\):$")


def check_answer(text, expected):
    """The `anc/2 (N tuples):` header and every row against the oracle."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = HEADER.match(line)
        if m:
            n = int(m.group(1))
            rows = [l.strip() for l in lines[i + 1:i + 1 + n]]
            return n == len(expected) and len(set(rows)) == n and set(rows) == expected
    return False


def timed_query(args, errfile):
    """Wall clock from spawn to exit with all answer text read, the peak
    resident set over the process and the children it waited for (the
    net runtime's workers), exit status and stdout."""
    t0 = time.perf_counter()
    with open(errfile, "wb") as err:
        p = subprocess.Popen([DATALOGP] + args, cwd=ROOT, env=ENV,
                             stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, p.returncode, out.decode()


def calibrate():
    """Makespan of CALIB_PROCS copies of the reference work run side by
    side: the host's speed now, in seconds per fixed job."""
    t0 = time.perf_counter()
    procs = [subprocess.Popen([CALIB, str(CALIB_REPS)], stdout=subprocess.DEVNULL)
             for _ in range(CALIB_PROCS)]
    codes = [p.wait() for p in procs]
    dt = time.perf_counter() - t0
    if any(codes):
        log("calib failed with exit %s" % codes)
        sys.exit(1)
    return dt


def at_ref_speed(value_s, calib_s):
    """A time measured while the reference work took calib_s (median),
    at the reference speed."""
    return value_s * REF_S / calib_s


def cpu_ticks():
    """(steal, total) ticks of this machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


# A round or pass during which the hypervisor stole more than this
# share of the machine's CPU time measured the host as much as the
# program. The metrics use the rounds (passes) at or below the limit,
# or, when those are fewer than half, the half with the least steal.
STEAL_LIMIT = 0.01


def least_stolen(units):
    """The units (dicts with a "steal" share) the metrics use."""
    limit = max(STEAL_LIMIT, statistics.median(u["steal"] for u in units))
    return [u for u in units if u["steal"] <= limit]


def batch_section(d, inp, budget, ledger):
    """Whole rounds of one query per executor until the budget is spent,
    each after a measure of the host's speed; returns the query times and
    host speeds of the least-stolen rounds, the peak resident set and
    every round's record."""
    files = [os.path.join(d, "batch_prog.dl"), "--edb", os.path.join(d, "batch_facts.dl")]
    errfile = os.path.join(d, "datalogp.stderr")
    # One untimed query first, so the binary is in the page cache.
    timed_query(EXECUTORS[0][1] + files + ["-q"], errfile)
    rounds = []
    rss = 0.0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < budget:
        steal0, total0 = cpu_ticks()
        cal = calibrate()
        times = {}
        for name, args in EXECUTORS:
            dt, mb, code, out = timed_query(args + files, errfile)
            ok = code == 0 and check_answer(out, inp.batch_rows)
            ledger.check(ok, "datalogp %s: exit %d or wrong answer" % (name, code))
            times[name] = dt
            rss = max(rss, mb)
        steal1, total1 = cpu_ticks()
        rounds.append({"s": times, "calib_s": cal,
                       "steal": (steal1 - steal0) / max(1, total1 - total0)})
    kept = least_stolen(rounds)
    times = {name: [r["s"][name] for r in kept] for name, _ in EXECUTORS}
    return times, [r["calib_s"] for r in kept], rss, rounds


def check_ops(path, inp, ledger):
    """Every reply summary of an ops file against the oracle; returns
    (pass, kind, latency ms) per operation, set-up reads (index -1)
    excluded."""
    recs = []
    with open(path) as f:
        for line in f:
            client, pas, idx, kind, ms, summary = line.rstrip("\n").split("\t")
            want = inp.expect[int(idx)]
            ledger.check(summary == want,
                         "%s op %s %s: got %s, oracle %s" % (client, idx, kind, summary, want))
            if int(idx) >= 0:
                recs.append((int(pas), kind, float(ms)))
    return recs


def by_kind(recs):
    lat = {}
    for _, kind, ms in recs:
        lat.setdefault(kind, []).append(ms)
    return lat


def run_probe(args):
    r = subprocess.run([PROBE] + args, cwd=ROOT, env=ENV,
                       stdout=subprocess.PIPE, stderr=sys.stderr)
    if r.returncode != 0:
        log("probe %s failed with exit %d" % (args[0], r.returncode))
        sys.exit(1)
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def serve_metrics(serve, recs):
    """Serve metrics over the least-stolen plan passes, at the reference
    speed: set-up by the host speeds taken after the set-ups, the rest
    by those taken after the kept passes."""
    passes = serve["passes"]
    chosen = least_stolen(passes)
    kept = [i for i, p in enumerate(passes) if p in chosen]
    recs = [r for r in recs if r[0] in kept]
    lat = by_kind(recs)
    ups = lat["UPDATE"] + lat["RETRACT"]
    cal = statistics.median(passes[i]["calib_s"] for i in kept)

    def ref(x):
        return at_ref_speed(x, cal)
    return {
        "setup_s": at_ref_speed(statistics.median(serve["setup_s"]),
                                statistics.median(serve["setup_calib_s"])),
        "serve_ops_per_s": len(recs) / ref(sum(passes[i]["seconds"] for i in kept)),
        "update_p50_ms": ref(statistics.median(ups)),
        "update_p90_ms": ref(p90(ups)),
        "live_read_p50_ms": ref(statistics.median(lat["LIVE"])),
        "live_read_p90_ms": ref(p90(lat["LIVE"])),
        "scratch_query_p50_ms": ref(statistics.median(lat["SCRATCH"])),
    }


CALIB_ARGS = ["--calib", CALIB, "--calib-reps", str(CALIB_REPS)]


def end_to_end(d, inp, seconds, ledger):
    batch_budget = seconds * inp.batch_share
    times, cals, rss, rounds = batch_section(d, inp, batch_budget, ledger)
    ops = os.path.join(d, "ops.tsv")
    serve = run_probe(["serve", "--datalogd", DATALOGD] + CALIB_ARGS
                      + ["--dir", d, "--seconds", str(seconds - batch_budget),
                         "--setups", str(SETUPS), "--ops", ops])
    recs = check_ops(ops, inp, ledger)
    with open(os.path.join(d, "samples.json"), "w") as f:
        json.dump({"batch_rounds": rounds, "serve_passes": serve["passes"],
                   "setup_s": serve["setup_s"], "setup_calib_s": serve["setup_calib_s"]}, f)
    cal = statistics.median(cals)
    m = {"query_%s_s" % name: at_ref_speed(statistics.median(ts), cal)
         for name, ts in times.items()}
    m["peak_rss_mb"] = max(rss, serve["hwm_kb"] / 1024.0)
    m.update(serve_metrics(serve, recs))
    return m


def per_layer(d, inp, seconds, ledger):
    # Untraced medians first: the traced layers must add up to them.
    times, cals, _, _ = batch_section(d, inp, seconds * inp.batch_share / 2, ledger)
    ops = os.path.join(d, "ops.tsv")
    session_ops = os.path.join(d, "session_ops.tsv")
    trace_file = os.path.join(d, "trace.json")
    r = run_probe(["trace", "--datalogp", DATALOGP, "--datalogd", DATALOGD] + CALIB_ARGS
                  + ["--dir", d, "--seconds", str(seconds * (1 - inp.batch_share) / 2),
                     "--setups", "2", "--reps", str(TRACE_REPS), "--ops", ops,
                     "--session-ops", session_ops, "--trace", trace_file])
    for exe, summary in r["answers"].items():
        ledger.check(summary == inp.batch_digest,
                     "in-process %s answer %s" % (exe, summary))
    lat = by_kind(check_ops(ops, inp, ledger))
    inproc = by_kind(check_ops(session_ops, inp, ledger))
    layers = r["layers"]
    m = dict(layers)
    for verb in VERBS:
        kind = VERB_KIND[verb]
        rtt = statistics.median(lat[kind])
        m["server.%s_rtt_ms" % verb] = rtt
        m["server.overhead_%s_ms" % verb] = rtt - statistics.median(inproc[kind])
    counters = r["serve"]["stats"].get("counters", {})
    for c in STATS_COUNTERS:
        m["server.stats.%s" % c] = counters.get(c, 0)
    for exe, ts in times.items():
        traced = sum(layers[k] for k in COMMON_LAYERS + LAYERS_OF[exe])
        m["unattributed.%s_s" % exe] = statistics.median(ts) - traced
    m["host.calib_s"] = statistics.median(cals)
    with open(os.path.join(d, "layers.txt"), "w") as f:
        for name, unit in PER_LAYER:
            f.write("%-40s %16.6f %s\n" % (name, m[name], unit))
    log("trace: %s; per-layer table: %s" % (trace_file, os.path.join(d, "layers.txt")))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    os.chdir(ROOT)
    build()
    # Paths handed to the programs are relative to the checkout root,
    # their working directory: the daemon's socket lives in d.
    d = os.path.join(OUT, "%s-%d-%d" % (a.workload, a.seed, a.trace))
    shutil.rmtree(os.path.join(ROOT, d), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, d))
    inp = inputs.Inputs(a.workload, a.seed)
    inp.write(d)

    ledger = Ledger()
    if a.trace:
        values, units = per_layer(d, inp, a.seconds, ledger), PER_LAYER
    else:
        values, units = end_to_end(d, inp, a.seconds, ledger), END_TO_END
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
