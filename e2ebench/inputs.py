"""Seeded inputs and the independent reachability oracle.

Every workload is a graph family plus an `ancestor` program. Its shape
(the edges, the toggled edges of the update plan, and so every closure
size) is drawn once from a generator seeded by the workload's name; the
run's seed draws the node labels. Labels decide how the hash partition
spreads values over processors, so the seed moves routing and load
balance while the work a run measures stays the same.

The oracle computes the transitive closure by breadth-first search over
the generated edge list. It shares no code with lib/datalog.
"""

import hashlib
import random
from collections import deque

# The paper's left-linear ancestor (Sections 2 and 4).
LINEAR = "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).\n"
# Example 8: the non-linear ancestor.
NONLINEAR = "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n"


def chains(count, length):
    """`count` disjoint chains of `length` nodes."""
    return [(c * length + i, c * length + i + 1)
            for c in range(count) for i in range(length - 1)]


def grid(rows, cols):
    """Right and down edges on a rows x cols grid."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return edges


def hotspot(rng, nodes, hubs, fanout, tail):
    """A skewed DAG: `hubs` hub nodes in a chain, each with `fanout`
    edges into the ordinary nodes, and every ordinary node with `tail`
    edges to later ordinary nodes. Hubs reach most of the graph, so
    most of the closure's rows and of its maintenance traffic sit on a
    few source values."""
    pool = range(hubs, nodes)
    edges = {(h, h + 1) for h in range(hubs - 1)}
    for h in range(hubs):
        edges.update((h, v) for v in rng.sample(pool, fanout))
    for u in pool[:-1]:
        later = range(u + 1, nodes)
        edges.update((u, v) for v in rng.sample(later, min(tail, len(later))))
    return sorted(edges)


def relabel(rng, edges):
    """Map node ids to distinct seeded labels: the shape stays, the
    hash partition of values over processors moves with the seed."""
    nodes = sorted({v for e in edges for v in e})
    lab = dict(zip(nodes, rng.sample(range(1, 1_000_000), len(nodes))))
    return lab, [(lab[x], lab[y]) for x, y in edges]


def closure(edges):
    """Transitive closure as a set of (x, y) pairs, by BFS per source."""
    succ = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    out = set()
    for src in succ:
        seen = set()
        todo = deque(succ[src])
        while todo:
            v = todo.popleft()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(succ.get(v, ()))
        out.update((src, v) for v in seen)
    return out


def row(pair):
    return "anc(%d, %d)" % pair


def digest(pairs):
    """`rows=N md5=HEX` over the sorted row strings — the summary the
    probe computes from the rows a server or engine returned."""
    rows = sorted(row(p) for p in pairs)
    return "rows=%d md5=%s" % (len(rows), hashlib.md5("\n".join(rows).encode()).hexdigest())


def facts(edges):
    return "".join("par(%d, %d).\n" % e for e in edges)


# Batch input, serve input, and the share of a run's seconds that goes
# to the batch queries (the rest drives the daemon). BENCHMARK.json
# gates tc-deep and live-serve; tc-wide runs the same way on request.
WORKLOADS = {
    "tc-deep": dict(
        program=LINEAR,
        batch=lambda rng: chains(1, 250),
        serve=lambda rng: chains(2, 40),
        batch_share=0.5),
    "tc-wide": dict(
        program=NONLINEAR,
        batch=lambda rng: grid(16, 16),
        serve=lambda rng: grid(8, 8),
        batch_share=0.6),
    "live-serve": dict(
        program=LINEAR,
        batch=lambda rng: hotspot(rng, 400, 8, 60, 2),
        serve=lambda rng: hotspot(rng, 120, 4, 25, 2),
        batch_share=0.3),
}

PLAN_STEPS = 24
SCRATCH_EVERY = 4


def plan_shape(rng, edges):
    """The structural update plan: one (toggled edge, is-insert) per
    step. Even steps retract an existing edge and put it back; odd
    steps insert a new edge and retract it."""
    base = set(edges)
    nodes = sorted({v for e in edges for v in e})
    steps = []
    for step in range(PLAN_STEPS):
        if step % 2 == 0:
            steps.append((rng.choice(edges), False))
        else:
            while True:
                e = tuple(rng.sample(nodes, 2))
                if e not in base:
                    break
            steps.append((e, True))
    return steps


def plan(edges, steps):
    """The daemon clients' operation plan over labelled `edges`, and
    the oracle's expected summary per operation index.

    Each step toggles one edge and undoes it, with a live read after
    each half. Every SCRATCH_EVERY-th step also runs a from-scratch
    query on the toggled state. A step ends where it began, so clients
    may repeat the whole plan for as long as a run lasts.
    """
    base = set(edges)
    c0 = closure(base)
    d0 = digest(c0)
    lines, expect = [], {-1: d0}

    def op(kind, payload, summary):
        expect[len(lines)] = summary
        lines.append("%s\t%s" % (kind, payload))

    for step, (e, insert) in enumerate(steps):
        c1 = closure(base | {e} if insert else base - {e})
        moved = len(c1 ^ c0) + 1  # the par fact itself counts too
        ins = ("UPDATE", "+par(%d, %d)." % e, "added=%d removed=0" % moved)
        ret = ("RETRACT", "par(%d, %d)." % e, "added=0 removed=%d" % moved)
        first, undo = (ins, ret) if insert else (ret, ins)
        op(*first)
        op("LIVE", "", digest(c1))
        if step % SCRATCH_EVERY == 0:
            op("SCRATCH", "", digest(c1))
        op(*undo)
        op("LIVE", "", d0)
    return "\n".join(lines) + "\n", expect


class Inputs:
    """Everything one run feeds the program, and what it must answer."""

    def __init__(self, workload, seed):
        spec = WORKLOADS[workload]
        shape = random.Random(workload)
        labels = random.Random("%s/%d" % (workload, seed))
        self.program = spec["program"]
        self.batch_share = spec["batch_share"]
        _, self.batch_edges = relabel(labels, spec["batch"](shape))
        serve = spec["serve"](shape)
        steps = plan_shape(shape, serve)
        lab, self.serve_edges = relabel(labels, serve)
        steps = [((lab[x], lab[y]), ins) for (x, y), ins in steps]
        batch_closure = closure(self.batch_edges)
        self.batch_rows = {row(p) for p in batch_closure}
        self.batch_digest = digest(batch_closure)
        self.plan_text, self.expect = plan(self.serve_edges, steps)

    def write(self, d):
        files = {
            "batch_prog.dl": self.program,
            "batch_facts.dl": facts(self.batch_edges),
            "linear.dl": LINEAR,
            "nonlinear.dl": NONLINEAR,
            "serve_facts.dl": facts(self.serve_edges),
            "plan.tsv": self.plan_text,
        }
        for name, text in files.items():
            with open("%s/%s" % (d, name), "w") as f:
                f.write(text)
