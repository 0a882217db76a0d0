"""The four workloads: seeded inputs, one round of operations, and checks.

Every workload is built from a seed and then run in rounds; each round does
exactly the same work on fresh copies of the inputs, so rounds can be
repeated until the run's time is up and per-round counts repeat exactly.
pgr is reached only through the module objects in ``pgr`` (a dict of
``graph``, ``rules``, ``matching``, ``rewrite`` and ``systems``), so a tracer
that rebinds module attributes sees every call.  Outputs are checked against
``reference``, which never calls pgr.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import sys

import reference as ref

# -- measuring operations ---------------------------------------------------------


class Meter:
    """Times pgr calls, counts operations and records failed ones.

    Times come from ``clock``, a ``speed.SpeedProbe``, in seconds at
    reference speed.  One call may stand for several operations (a whole
    ``ds_explore`` walk counts every state it explores).  A call that raises
    or whose output fails its check counts all its operations as failed,
    and its latency is ranked above every successful one.  The caller
    starts each round with ``new_round``; since rounds repeat the same
    calls, a call's latency is its median over the rounds.
    """

    def __init__(self, call, clock):
        self.call = call
        self.clock = clock
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failed_calls = 0

    def new_round(self) -> None:
        self.rounds.append({"samples": [], "busy": 0.0, "done": 0})

    def measure(self, fn, *args, ops=1, sample=True, check=None):
        """Run ``fn(*args)`` as ``ops`` operations; return its result, or
        None when it raised or ``check(result)`` named a problem."""
        current = self.rounds[-1]
        mark = self.clock.start()
        try:
            result = self.call(fn, *args)
        except Exception as exc:  # a crash is a failed operation, never a verdict
            current["busy"] += self.clock.cost(mark)
            self.fail(ops, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = self.clock.cost(mark)
        current["busy"] += elapsed
        problem = check(result) if check else None
        if problem:
            self.fail(ops, problem)
            return None
        self.attempted += ops
        current["done"] += ops
        if sample:
            current["samples"].append(elapsed)
        return result

    def fail(self, ops: int, problem: str, counted: bool = False) -> None:
        """Count ``ops`` operations as failed; ``counted`` ones were already
        counted as done when their calls returned."""
        if counted:
            self.rounds[-1]["done"] -= ops
        else:
            self.attempted += ops
        self.failed += ops
        self.failed_calls += 1
        if self.failed_calls <= 20:
            print(f"failed: {problem}", file=sys.stderr)

    def metrics(self) -> dict[str, float]:
        """Throughput is the median over rounds; latencies are percentiles
        over calls of each call's median time."""
        per_round = [r["samples"] for r in self.rounds]
        if self.failed == 0 and len({len(s) for s in per_round}) == 1:
            latencies = [statistics.median(times) for times in zip(*per_round)]
        else:
            slowest = max(r["busy"] for r in self.rounds)
            latencies = [t for s in per_round for t in s] + [slowest] * self.failed_calls
        if len(latencies) == 1:
            latencies *= 2
        return {
            "throughput": statistics.median(r["done"] / r["busy"] for r in self.rounds),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        }


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def graph_data(g) -> tuple:
    return tuple(sorted(g.vertices)), tuple(sorted(g.edges.items()))


def redex_keys(redexes) -> list:
    """(vertex map, edge map, adherence map) triples, comparable as a list."""
    return sorted(tuple(tuple(sorted(m.items())) for m in r) for r in redexes)


def fresh(pgr, g):
    """A copy that shares no cached indexes with ``g``."""
    return pgr["graph"].Graph(g.vertices, g.edges)


def relabel(rng: random.Random, vertices, triples) -> tuple[list[int], list[tuple]]:
    """Give the vertices distinct random ids and shuffle the edge order."""
    ids = rng.sample(range(1000, 100000), len(vertices))
    name = dict(zip(sorted(vertices), ids))
    moved = [(name[s], lab, name[t]) for s, lab, t in triples]
    rng.shuffle(moved)
    return [name[v] for v in sorted(vertices)], moved


# -- deadlock --------------------------------------------------------------------


class Deadlock:
    """``detect_deadlock`` on seeded N-out-of-M wait-for nets.

    Two nets per (size, verdict) slot, sizes 8 to 30 processes.  Three in
    five processes request, with a fixed cycle of (m targets, n grants
    needed).  A deadlock-free net orders its processes so that every
    request has n targets earlier in the order.  A deadlocked net leaves
    half its processes blocked: each of their requests has fewer than n
    targets outside the blocked half.  So the cost mix barely depends on
    the seed.  The verdict expected is the reference fixpoint's, not the
    construction's.
    """

    SIZES = range(8, 31)
    ARITY = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 1), (1, 1)]

    def __init__(self, pgr, seed: int):
        self.pgr = pgr
        rng = random.Random(f"deadlock:{seed}")
        self.nets = []
        for procs in self.SIZES:
            for deadlocked in (False, True, False, True):
                self.nets.append(self._net(rng, procs, deadlocked))
        self.digest = digest([graph_data(g) for g, _, _ in self.nets])

    def _net(self, rng, procs, deadlocked):
        order = rng.sample(range(procs), procs)
        free = order[:procs // 2] if deadlocked else order
        blocked = order[len(free):]
        requesters = blocked + rng.sample(free[2:], procs * 3 // 5 - len(blocked))
        requests = []
        for i, p in enumerate(sorted(requesters)):
            m, n = self.ARITY[i % len(self.ARITY)]
            if p in blocked:
                outside = rng.randint(0, n - 1)
                targets = rng.sample(free, outside) + rng.sample(
                    [q for q in blocked if q != p], m - outside)
            else:
                earlier = free[:free.index(p)]
                first = rng.sample(earlier, rng.randint(n, min(m, len(earlier))))
                targets = first + rng.sample(
                    [q for q in range(procs) if q != p and q not in first], m - len(first))
            rng.shuffle(targets)
            requests.append((p, tuple(targets), n))
        left = procs - len(ref.free_processes(procs, requests))
        if left != len(blocked):
            raise RuntimeError(f"net built with {len(blocked)} blocked processes, "
                               f"reference finds {left}")
        triples = []
        for r, (p, targets, n) in enumerate(requests, start=procs):
            triples += [(p, "_", r), (r, "z", r)] + [(r, "_", t) for t in targets]
            triples += [(r, "s", r)] * n
        vertices, triples = relabel(rng, range(procs + len(requests)), triples)
        # The normal form keeps exactly the blocked processes and their requests.
        return self.pgr["graph"].Graph.from_triples(vertices, triples), left > 0, 2 * left

    def round(self, meter: Meter) -> None:
        detect = self.pgr["systems"].detect_deadlock
        for g, deadlocked, left in self.nets:
            def check(report):
                if report.deadlocked != deadlocked:
                    return f"deadlock verdict {report.deadlocked}, reference {deadlocked}"
                if len(report.normal_form.vertices) != left:
                    return (f"normal form keeps {len(report.normal_form.vertices)} "
                            f"vertices, reference {left}")
                return None
            meter.measure(detect, fresh(self.pgr, g), check=check)


# -- grammar ---------------------------------------------------------------------


class Grammar:
    """Breadth-first exploration of the wait-for grammar from the empty graph.

    Expanding a state applies every redex of every rule (``successors`` with
    dedup) and keeps the results whose canonical form is new.  The seed
    fixes the order in which each level is expanded.
    Every new state must be a valid net, and after each level the states
    kept must cover exactly the pinned number of isomorphism classes, as
    decided by ``reference.Classes``.  States kept beyond one per class mean
    that ``canonical_form`` gave isomorphic graphs different forms; their
    number depends on the expansion order and is reported, not failed.
    """

    CLASSES = [2, 3, 5, 8, 15, 29, 66, 157, 429]

    def __init__(self, pgr, seed: int):
        self.pgr = pgr
        self.grammar = pgr["systems"].waitfor_grammar()
        self.shuffle_seed = random.Random(f"grammar:{seed}").randrange(2 ** 32)
        self.digest = digest(list(self.grammar), self.shuffle_seed)
        self.duplicate_classes = 0

    def _expand(self, g, seen):
        canonical_form = self.pgr["graph"].canonical_form
        new = []
        for _, succ in self.pgr["rewrite"].successors(g, self.grammar, dedup=True)[0]:
            key = canonical_form(succ)
            if key not in seen:
                seen.add(key)
                new.append(succ)
        return new

    def round(self, meter: Meter) -> None:
        graph = self.pgr["graph"]
        WaitForNet = self.pgr["systems"].WaitForNet
        rng = random.Random(self.shuffle_seed)
        seen = {graph.canonical_form(graph.EMPTY_GRAPH)}
        classes = ref.Classes()
        classes.add(graph.EMPTY_GRAPH.vertices, graph.EMPTY_GRAPH.edges)
        frontier = [graph.EMPTY_GRAPH]

        def check(new):
            for s in new:
                problems = ref.waitfor_problems(s.vertices, s.edges) or WaitForNet(s).violations()
                if problems:
                    return f"grammar produced an invalid net: {problems[0]}"
            return None

        for want in self.CLASSES:
            rng.shuffle(frontier)
            nxt = []
            for g in frontier:
                nxt += meter.measure(self._expand, g, seen, check=check) or []
            for s in nxt:
                classes.add(s.vertices, s.edges)
            if classes.count != want:
                meter.fail(len(frontier), f"{classes.count} classes after a level, pinned {want}",
                           counted=True)
            frontier = nxt
        self.duplicate_classes = len(seen) - classes.count


# -- ds_explore ------------------------------------------------------------------


class DsExplore:
    """Termination-detection state spaces with two sends per process.

    The topologies are fixed; the seed renames their vertices and reorders
    their links.  State and announce-state counts are pinned.
    """

    TOPOLOGIES = {
        # name: (links, initiator, states, announce states)
        "line3": ([(0, 1), (1, 2)], 0, 479, 15),
        "star4": ([(0, 1), (0, 2), (0, 3)], 0, 210, 10),
        "triangle": ([(0, 1), (1, 2), (0, 2)], 0, 1366, 13),
    }

    def __init__(self, pgr, seed: int):
        self.pgr = pgr
        rng = random.Random(f"ds_explore:{seed}")
        self.cases = []
        for name, (links, initiator, states, announce) in self.TOPOLOGIES.items():
            ids = rng.sample(range(1000, 100000), 4)
            moved = [(ids[u], ids[v]) for u, v in links]
            rng.shuffle(moved)
            self.cases.append((name, moved, ids[initiator], states, announce))
        self.digest = digest([c[:3] for c in self.cases])

    def round(self, meter: Meter) -> None:
        systems = self.pgr["systems"]
        for name, links, initiator, states, announce in self.cases:
            def check(result):
                if result.truncated:
                    return f"{name}: exploration truncated"
                if (len(result.states), len(result.announce_states)) != (states, announce):
                    return (f"{name}: {len(result.states)} states and "
                            f"{len(result.announce_states)} announce states, pinned "
                            f"{states} and {announce}")
                if result.safety_violations or not all(
                        ref.quiescent(g.edges) for g in result.announce_states):
                    return f"{name}: announce enabled in a state that is not quiescent"
                return None
            state = systems.ds_initial_network(links, initiator)
            meter.measure(systems.ds_explore, state, 2, ops=states, check=check)


# -- certify ---------------------------------------------------------------------


class Certify:
    """Certified steps: seeded deterministic steps checked by the oracle, and
    the quasi parallel-drop rule on hosts with 1 to 12 parallel edges.

    A deterministic step finds the redexes, applies the first, verifies its
    certificate and compares the result with ``brute_force_step_oracle``.
    Replacement patches are kept to at most 4 edges so that no single oracle
    call dominates a round.  The quasi part must find exactly 2^n redexes,
    each applied and verified.
    """

    STEPS = 1500
    MAX_REPLACEMENT = 4
    PARALLEL = range(1, 13)

    def __init__(self, pgr, seed: int):
        self.pgr = pgr
        rng = random.Random(f"certify:{seed}")
        self.steps = []
        while len(self.steps) < self.STEPS:
            host, rule = self._random_host(rng), self._random_rule(rng)
            rdata = ref.RuleData.of(rule)
            found = ref.redexes(host.vertices, host.edges, rdata)
            if found and all(rdata.replacement_size(h) <= self.MAX_REPLACEMENT
                             for _, _, h in found):
                self.steps.append((host, rule, rdata, redex_keys(found)))
        self.drop = self._parallel_drop_rule()
        self.drop_data = ref.RuleData.of(self.drop)
        Graph = pgr["graph"].Graph
        self.quasi = []
        for n in self.PARALLEL:
            vertices, triples = relabel(rng, [0, 1], [(0, "a", 1)] * n)
            host = Graph.from_triples(vertices, triples)
            found = ref.redexes(host.vertices, host.edges, self.drop_data)
            self.quasi.append((n, host, redex_keys(found)))
        self.digest = digest([(graph_data(h), r.lhs.ptype.edges, r.rhs.ptype.edges,
                               graph_data(r.lhs.pattern), graph_data(r.rhs.pattern))
                              for h, r, _, _ in self.steps],
                             [graph_data(h) for _, h, _ in self.quasi])

    def _random_graph(self, rng, vertices, max_edges, edge_base=0):
        edges = [(edge_base + i, rng.choice(vertices), rng.choice("ab"), rng.choice(vertices))
                 for i in range(rng.randint(0, max_edges))] if vertices else []
        return self.pgr["graph"].Graph(vertices, edges)

    def _random_host(self, rng):
        return self._random_graph(rng, list(range(rng.randint(1, 4))), 5)

    def _random_rule(self, rng):
        """A small rule whose left placeholders are pairwise distinct."""
        ctx = self.pgr["rules"].CONTEXT
        lhs_vs = list(range(rng.randint(1, 2)))
        pairs = [(ctx, v) for v in lhs_vs] + [(v, ctx) for v in lhs_vs] \
            + [(u, v) for u in lhs_vs for v in lhs_vs]
        picked = rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
        lhs_types = {f"k{i}": p for i, p in enumerate(picked)}
        rhs_vs = [10 + i for i in range(rng.randint(1, 2))]
        rhs_types = []
        for _ in range(rng.randint(0, 3) if lhs_types else 0):
            key = rng.choice(sorted(lhs_types))
            options = [(u, v) for u in rhs_vs for v in rhs_vs]
            if ctx in lhs_types[key]:
                options += [(ctx, v) for v in rhs_vs] + [(v, ctx) for v in rhs_vs]
            rhs_types.append((*rng.choice(options), key))
        return self.pgr["rules"].build_rule(
            self._random_graph(rng, lhs_vs, 2), lhs_types,
            self._random_graph(rng, rhs_vs, 2, edge_base=100), rhs_types)

    def _parallel_drop_rule(self):
        """Two placeholders over one vertex pair; the right side keeps one."""
        Graph = self.pgr["graph"].Graph
        return self.pgr["rules"].build_rule(
            Graph([0, 1]), {"keep": (0, 1), "drop": (0, 1)},
            Graph([10, 11]), [(10, 11, "keep")])

    def _certify(self, host, rule):
        rewrite, graph = self.pgr["rewrite"], self.pgr["graph"]
        redexes, _ = self.pgr["matching"].find_redexes(host, rule)
        result, cert = rewrite.apply_at(host, redexes[0])
        verified = rewrite.verify_step(host, result, cert)
        oracle = rewrite.brute_force_step_oracle(host, redexes[0])
        return redexes, result, verified, oracle == [graph.canonical_form(result)]

    def _apply_verified(self, host, redex):
        result, cert = self.pgr["rewrite"].apply_at(host, redex)
        return result, self.pgr["rewrite"].verify_step(host, result, cert)

    @staticmethod
    def _redex_keys(redexes) -> list:
        return redex_keys((r.embedding.vmap, r.embedding.emap, r.h_l) for r in redexes)

    @staticmethod
    def _result_problem(host, rdata, redex, result):
        expected = ref.step_result(host.vertices, host.edges, rdata,
                                   redex.embedding.vmap, redex.h_l)
        if not ref.same_result(expected, result.vertices, result.edges):
            return "step result differs from the reference step"
        return None

    def round(self, meter: Meter) -> None:
        for host, rule, rdata, expected in self.steps:
            host = fresh(self.pgr, host)

            def check(out):
                redexes, result, verified, oracle_agrees = out
                if self._redex_keys(redexes) != expected:
                    return "redexes differ from the reference enumeration"
                if not verified:
                    return "certificate rejected by verify_step"
                if not oracle_agrees:
                    return "oracle disagrees with the constructed step"
                return self._result_problem(host, rdata, redexes[0], result)
            meter.measure(self._certify, host, rule, check=check)

        find_redexes = self.pgr["matching"].find_redexes
        for n, host, expected in self.quasi:
            host = fresh(self.pgr, host)

            def check_redexes(out):
                redexes, truncated = out
                if truncated or len(redexes) != 2 ** n:
                    return f"{len(redexes)} redexes on {n} parallel edges, expected {2 ** n}"
                if self._redex_keys(redexes) != expected:
                    return "quasi redexes differ from the reference enumeration"
                return None
            out = meter.measure(find_redexes, host, self.drop, ops=0, sample=False,
                                check=check_redexes)
            if out is None:
                meter.fail(2 ** n, f"no steps certified on {n} parallel edges")
                continue
            for redex in out[0]:
                def check_step(res):
                    result, verified = res
                    if not verified:
                        return "quasi certificate rejected by verify_step"
                    return self._result_problem(host, self.drop_data, redex, result)
                meter.measure(self._apply_verified, host, redex, check=check_step)



WORKLOADS = {
    "deadlock": Deadlock,
    "grammar": Grammar,
    "ds_explore": DsExplore,
    "certify": Certify,
}
