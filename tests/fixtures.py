"""Shared fixture graphs and rules used across the test modules.

The running example is a three-vertex host: two parallel edges (labels b, c)
into a hub vertex that carries an a-loop and a d-edge out to a third vertex
with an e-loop.  Most single-node rules in the suite target the hub.
"""

import contextlib
import functools
import importlib
import sys
from pathlib import Path

from previous_ds_explore import previous_walk

from pgr import graph, matching, rewrite, rules, systems
from pgr.formats import parse_document
from pgr.graph import Graph
from pgr.rules import CONTEXT as CTX
from pgr.rules import build_rule


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def perfbench_module(name):
    """A module of the benchmark harness, imported from ``perfbench/``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def sample_documents():
    """The parsed ``samples/*.pgr`` files, in name order."""
    return [parse_document(path.read_text(encoding="utf-8"))
            for path in sorted(SAMPLES.glob("*.pgr"))]


def deadlock_workload_nets(seed=3):
    """The ``(net, deadlocked, left)`` inputs of the benchmark's ``deadlock``
    workload for ``seed``."""
    modules = {"graph": graph, "rules": rules, "matching": matching,
               "rewrite": rewrite, "systems": systems}
    return perfbench_module("workloads").Deadlock(modules, seed).nets


@functools.cache
def ds_states():
    """Every state of the two-send walks on line3 and star4, as the reference
    ``previous_ds_explore`` lists them (ids and order included)."""
    states = {name: previous_walk(name, 2).states for name in ("line3", "star4")}
    assert {name: len(s) for name, s in states.items()} == {"line3": 479, "star4": 210}
    return [g for s in states.values() for g in s]


@contextlib.contextmanager
def shallow_recursion(headroom=100):
    """Lower the recursion limit to the current stack depth plus ``headroom``,
    so code that recurses once per vertex fails on inputs of a few hundred."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def set_map_cap(monkeypatch, cap):
    """Set the adherence-map cap through ``PGR_MAX_MAPS``; None restores the
    default."""
    if cap is None:
        monkeypatch.delenv("PGR_MAX_MAPS", raising=False)
    else:
        monkeypatch.setenv("PGR_MAX_MAPS", str(cap))


def reference_apply_at(host, redex, fresh_base=None):
    """``rewrite.apply_at`` as it was before a step became an edit of a copy
    of its host: the context C, the new match M' and the result are built
    as graphs of their own, and the result is ``patch_compose(C, J', M')``."""
    rule = redex.rule
    floor = max(host.max_id(), rule.rhs.pattern.max_id()) + 1
    if fresh_base is None:
        fresh_base = floor
    elif fresh_base < floor:
        raise ValueError(f"fresh base {fresh_base} collides with existing ids "
                         f"(needs at least {floor})")
    inst, j_prime, h_r, sigma = rewrite.construct_rhs_patch(redex, fresh_base)
    m_prime = graph.rename_graph(rule.rhs.pattern, inst)
    result = graph.patch_compose(redex.decomposition.context, j_prime, m_prime)
    return result, rewrite.StepCertificate(redex, inst, j_prime, h_r, sigma)


def assert_indexes_like_fresh(g):
    """The incidence lists, label index and max id that ``g`` carries equal
    those of a graph built afresh from its vertices and edges."""
    carried = g._max
    fresh = Graph(g.vertices, g.edges)
    assert g._indexes() == fresh._indexes()
    assert carried in (None, fresh.max_id()) and g.max_id() == fresh.max_id()


def anchored_redexes(host, rule, anchors):
    """The redexes that ``RedexSets`` searches after a step: those of
    ``matching._redex_entries`` from ``anchors``, built as ``find_redexes``
    builds its own, with the cap flag."""
    redexes, truncated = [], False
    cap = rules.default_map_cap()
    for _, emb, maps, capped in matching._redex_entries(host, rule, cap, anchors):
        d = graph.PatchDecomposition(host, emb.image_vertices(), emb.image_edges(), list(maps[0]))
        truncated = truncated or capped
        redexes += [matching.Redex(rule, emb, d, h_l, capped) for h_l in maps]
    return redexes, truncated


def hub_host() -> Graph:
    """1 -b-> 2, 1 -c-> 2, a-loop on 2, 2 -d-> 3, e-loop on 3."""
    return Graph.from_triples(
        [1, 2, 3],
        [(1, "b", 2), (1, "c", 2), (2, "a", 2), (2, "d", 3), (3, "e", 3)],
    )


def hub_host_extra_loop() -> Graph:
    """The hub host with an additional f-loop on the hub vertex."""
    g = hub_host()
    edges = dict(g.edges)
    edges[max(edges) + 1] = (2, "f", 2)
    return Graph(g.vertices, edges)


def aloop_pattern() -> Graph:
    return Graph.from_triples([0], [(0, "a", 0)])


def two_fresh_nodes(b_loop_on_first=True) -> Graph:
    # Edge ids start at 100 to stay clear of the left pattern's ids.
    edges = [(100, 10, "b", 10)] if b_loop_on_first else []
    return Graph([10, 11], edges)


def strict_delete_rule():
    """Replace an isolated a-loop vertex by two vertices, one with a b-loop.

    No type edges at all: applicable only when the patch is empty.
    """
    return build_rule(aloop_pattern(), {}, two_fresh_nodes(), [])


def delete_rule():
    """As strict_delete_rule, but context edges in and out are permitted
    (and dropped, since the right side does not reuse them)."""
    return build_rule(
        aloop_pattern(),
        {"in": (CTX, 0), "out": (0, CTX)},
        two_fresh_nodes(),
        [],
    )


def redirect_rule():
    """Incoming context edges move to the first copy, outgoing to the second."""
    return build_rule(
        aloop_pattern(),
        {"in": (CTX, 0), "out": (0, CTX)},
        two_fresh_nodes(),
        [(CTX, 10, "in"), (11, CTX, "out")],
    )


def duplicate_rule():
    """Drop incoming context edges; emit one copy of each outgoing edge from
    the first vertex and two copies from the second."""
    return build_rule(
        aloop_pattern(),
        {"in": (CTX, 0), "out": (0, CTX)},
        two_fresh_nodes(),
        [(10, CTX, "out"), (11, CTX, "out"), (11, CTX, "out")],
    )


def invert_pull_rule():
    """Reverse incoming context edges and pull one copy of each outgoing edge
    inside the pattern."""
    return build_rule(
        aloop_pattern(),
        {"in": (CTX, 0), "out": (0, CTX)},
        two_fresh_nodes(),
        [(10, CTX, "in"), (10, CTX, "out"), (11, 10, "out")],
    )


def copy_vertex_rule():
    """Duplicate any vertex carrying an a-loop together with all incident
    edges; the a-loop itself is not recreated."""
    return build_rule(
        aloop_pattern(),
        {"in": (CTX, 0), "out": (0, CTX), "loop": (0, 0)},
        Graph.from_triples([10, 11]),
        [(CTX, 10, "in"), (10, CTX, "out"), (10, 10, "loop"),
         (CTX, 11, "in"), (11, CTX, "out"), (11, 11, "loop")],
    )


def three_spoke_rule():
    """A four-vertex pattern rule exercising every patch transformation kind:
    keep, duplicate, retarget inside the pattern, invert, delete."""
    lhs = Graph.from_triples(
        [1, 2, 3, 4],
        [(1, "a", 2), (2, "b", 3), (2, "a", 4)],
    )
    rhs = Graph(
        [11, 13, 14],
        [(100, 13, "c", 14), (101, 14, "a", 11)],
    )
    return build_rule(
        lhs,
        {"k1": (CTX, 1), "k2": (1, 3), "k3": (3, CTX), "k4": (CTX, 4), "k5": (4, CTX)},
        rhs,
        [(11, 13, "k2"), (11, 13, "k1"), (CTX, 11, "k4"), (14, CTX, "k4"),
         (13, CTX, "k3")],
    )


def three_spoke_host() -> Graph:
    """Host in which three_spoke_rule has exactly one match."""
    return Graph.from_triples(
        [1, 2, 3, 4, 34, 14, 13],
        [
            (1, "a", 2), (2, "b", 3), (2, "a", 4),    # match image
            (1, "b", 3),                               # in-match patch edge
            (14, "d", 1), (13, "b", 1),                # incoming, bound to k1
            (14, "b", 4),                              # incoming, bound to k4
            (4, "b", 34),                              # outgoing, bound to k5
            (14, "c", 13),                             # context edge
        ],
    )


def three_spoke_expected() -> Graph:
    """Result of applying three_spoke_rule at the only redex of its host."""
    return Graph.from_triples(
        [13, 14, 34, 21, 23, 24],
        [
            (14, "c", 13),                 # context survives untouched
            (23, "c", 24), (24, "a", 21),  # fresh right-hand pattern
            (21, "b", 23),                 # kept in-match edge (k2)
            (21, "b", 23), (21, "d", 23),  # incoming edges moved inside (k1)
            (14, "b", 21),                 # incoming kept on context side (k4)
            (24, "b", 14),                 # same source edge, inverted (k4)
        ],
    )


def parallel_drop_rule():
    """Two type edges over the same vertex pair; the right side keeps only
    one of them.  The left patch type is not simple, so the rule is quasi."""
    lhs = Graph.from_triples([0, 1])
    rhs = Graph.from_triples([10, 11])
    return build_rule(
        lhs,
        {"keep": (0, 1), "drop": (0, 1)},
        rhs,
        [(10, 11, "keep")],
    )


def parallel_edge_host(n: int) -> Graph:
    """Two vertices joined by n parallel a-edges."""
    return Graph.from_triples([0, 1], [(0, "a", 1)] * n)


def sender_host(k: int) -> Graph:
    """A hub 0 with an a-loop and one b-edge in from each of k senders 1..k:
    the context end of each new patch edge has k candidates."""
    return Graph.from_triples(range(k + 1),
                              [(0, "a", 0)] + [(i, "b", 0) for i in range(1, k + 1)])


def random_graph(rng, vertices, max_edges, labels="ab", edge_base=0):
    edges = []
    if vertices:
        for i in range(rng.randint(0, max_edges)):
            edges.append((edge_base + i, rng.choice(vertices),
                          rng.choice(labels), rng.choice(vertices)))
    return Graph(vertices, edges)


def random_deterministic_rule(rng):
    """A small rule with a simple left patch type and a lawful trace."""
    lhs_vs = list(range(rng.randint(1, 2)))
    lhs = random_graph(rng, lhs_vs, 2)
    pairs = [(CTX, v) for v in lhs_vs] + [(v, CTX) for v in lhs_vs] \
        + [(u, v) for u in lhs_vs for v in lhs_vs]
    picked = rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
    lhs_types = {f"k{i}": p for i, p in enumerate(picked)}
    rhs_vs = [10 + i for i in range(rng.randint(1, 2))]
    rhs = random_graph(rng, rhs_vs, 2, edge_base=100)
    rhs_types = []
    for _ in range(rng.randint(0, 3)):
        if not lhs_types:
            break
        key = rng.choice(sorted(lhs_types))
        ls, lt = lhs_types[key]
        options = [(u, v) for u in rhs_vs for v in rhs_vs]
        if CTX in (ls, lt):
            options += [(CTX, v) for v in rhs_vs] + [(v, CTX) for v in rhs_vs]
        s, t = rng.choice(options)
        rhs_types.append((s, t, key))
    return build_rule(lhs, lhs_types, rhs, rhs_types)


def random_instances(rng, count, max_host_vertices=4, max_host_edges=5):
    """Yield ``count`` (host, rule, redex) triples for deterministic rules."""
    from pgr.matching import find_redexes

    produced = 0
    while produced < count:
        host = random_graph(rng, list(range(rng.randint(1, max_host_vertices))),
                            max_host_edges)
        rule = random_deterministic_rule(rng)
        redexes, _ = find_redexes(host, rule)
        if redexes:
            yield host, rule, redexes[0]
            produced += 1


def random_quasi_rule(rng):
    """Like random_deterministic_rule, but left placeholders may repeat."""
    lhs_vs = list(range(rng.randint(1, 2)))
    lhs = random_graph(rng, lhs_vs, 1)
    pairs = [(CTX, v) for v in lhs_vs] + [(v, CTX) for v in lhs_vs] \
        + [(u, v) for u in lhs_vs for v in lhs_vs]
    picked = [rng.choice(pairs) for _ in range(rng.randint(1, 3))]
    lhs_types = {f"k{i}": p for i, p in enumerate(picked)}
    rhs_vs = [10 + i for i in range(rng.randint(1, 2))]
    rhs = random_graph(rng, rhs_vs, 1, edge_base=100)
    rhs_types = []
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(sorted(lhs_types))
        ls, lt = lhs_types[key]
        options = [(u, v) for u in rhs_vs for v in rhs_vs]
        if CTX in (ls, lt):
            options += [(CTX, v) for v in rhs_vs] + [(v, CTX) for v in rhs_vs]
        s, t = rng.choice(options)
        rhs_types.append((s, t, key))
    return build_rule(lhs, lhs_types, rhs, rhs_types)


def renamed_rule_copy(rule, rng):
    """A structurally identical rule under fresh random ids."""
    from pgr.rules import PatchType, QuasiRule, Scheme

    all_vs = sorted(rule.lhs.pattern.vertices | rule.rhs.pattern.vertices)
    shuffled = all_vs[:]
    rng.shuffle(shuffled)
    vmap = {v: w + 200 for v, w in zip(all_vs, shuffled)}
    all_es = sorted(set(rule.lhs.pattern.edges) | set(rule.rhs.pattern.edges)
                    | set(rule.lhs.ptype.edges) | set(rule.rhs.ptype.edges))
    se = all_es[:]
    rng.shuffle(se)
    emap = {e: w + 500 for e, w in zip(all_es, se)}

    def move_graph(g):
        return Graph((vmap[v] for v in g.vertices),
                     {emap[e]: (vmap[s], lab, vmap[t])
                      for e, (s, lab, t) in g.edges.items()})

    def move_type(pt, pattern):
        return PatchType(pattern, {emap[e]: (vmap.get(s, s), vmap.get(t, t))
                                   for e, (s, t) in pt.edges.items()})

    lp, rp = move_graph(rule.lhs.pattern), move_graph(rule.rhs.pattern)
    return QuasiRule(Scheme(lp, move_type(rule.lhs.ptype, lp)),
                     Scheme(rp, move_type(rule.rhs.ptype, rp)),
                     {emap[e]: emap[t] for e, t in rule.trace.items()})
