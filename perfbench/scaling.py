"""Scaling probe: the ROADMAP baseline families at n, 2n and 4n.

    python3 perfbench/scaling.py [--limit 15] [--out perfbench/out/scaling.json]

Not part of the gated workload runs.  Each family runs its points in
order and stops after the first one that takes longer than ``--limit``
seconds; a point that raises is recorded as a failure with the exception's
name and also ends its family.  Each point is a single call (repeated, with
the median kept, while the calls are short), timed by the wall clock, and
its result is checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def ring(graph, rules, n):
    """n vertices with an a-loop each, joined in a ring by b-edges, and the
    rule that removes one a-loop while keeping the vertex's other edges."""
    ctx = rules.CONTEXT
    host = graph.Graph.from_triples(
        range(n), [(i, "a", i) for i in range(n)] + [(i, "b", (i + 1) % n) for i in range(n)])
    rule = rules.build_rule(graph.Graph([0], [(0, 0, "a", 0)]),
                            {"in": (ctx, 0), "out": (0, ctx)},
                            graph.Graph([10]), [(ctx, 10, "in"), (10, ctx, "out")])
    return host, rule


def chain(graph, k):
    """k processes, each waiting (1 of 1) on the next; the last is free."""
    triples = []
    for i in range(k - 1):
        r = k + i
        triples += [(i, "_", r), (r, "_", i + 1), (r, "z", r), (r, "s", r)]
    return graph.Graph.from_triples(range(2 * k - 1), triples)


def path(graph, n, offset=0):
    return graph.Graph.from_triples(
        [offset + i for i in range(n)], [(offset + i, "a", offset + i + 1) for i in range(n - 1)])


def families(pgr):
    graph, rules = pgr["graph"], pgr["rules"]
    matching, rewrite, systems = pgr["matching"], pgr["rewrite"], pgr["systems"]

    def find_redexes(n):
        host, rule = ring(graph, rules, n)
        return (lambda: matching.find_redexes(host, rule),
                lambda out: len(out[0]) == n)

    def normalize(n):
        host, rule = ring(graph, rules, n)
        return (lambda: rewrite.normalize(host, {"drop-loop": rule}),
                lambda out: len(out[1]) == n and "a" not in out[0].labels())

    def detect_deadlock(k):
        net = chain(graph, k)
        return (lambda: systems.detect_deadlock(net), lambda out: not out.deadlocked)

    def canonical_form(k):
        g = graph.Graph(range(100, 100 + k))
        return (lambda: graph.canonical_form(g), lambda out: out == graph.Graph(range(k)))

    def find_isomorphism(n):
        g, h = path(graph, n), path(graph, n, offset=5000)
        return (lambda: graph.find_isomorphism(g, h),
                lambda out: out is not None and graph.rename_graph(g, out) == h)

    return {
        "ring find_redexes": (find_redexes, [200, 400, 800]),
        "ring normalize": (normalize, [50, 100, 200]),
        "chain detect_deadlock": (detect_deadlock, [20, 40, 80]),
        "isolated canonical_form": (canonical_form, [4, 8, 16]),
        "path find_isomorphism": (find_isomorphism, [375, 750, 1500]),
    }


def measure(call, limit: float):
    times = []
    while not times or (sum(times) < min(0.5, limit) and len(times) < 5):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
    return out, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--limit", type=float, default=15.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    pgr = run.import_pgr()
    record = {}
    for name, (make, sizes) in families(pgr).items():
        points = []
        for n in sizes:
            call, check = make(n)
            try:
                out, times = measure(call, args.limit)
            except Exception as exc:  # recorded: the probe maps where pgr breaks
                points.append({"n": n, "failed": type(exc).__name__})
                break
            points.append({"n": n, "seconds": statistics.median(times),
                           "calls": len(times), "ok": bool(check(out))})
            if points[-1]["seconds"] > args.limit:
                break
        record[name] = points
        print(json.dumps({name: points}), file=sys.stderr)
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
