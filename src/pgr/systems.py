"""Bundled rule sets and verification procedures.

Two worked distributed-systems models ship with the engine:

* wait-for graphs: processes request N out of M resources from other
  processes; requests are encoded as extra vertices carrying one ``z`` loop
  plus one ``s`` loop per grant still outstanding.  A grammar generates the
  valid nets, a second rule set simulates the system behavior, and a
  restriction of it decides deadlock by normalization.
* Dijkstra-Scholten termination detection: the classic parent-tree algorithm
  over an undirected network, with basic/control messages, counters and, in
  the bounded state-space walk, each process's send budget all encoded as
  labeled edges, so that the walk is a plain search over ``successors``.

The module also bundles small structural rules (merge, copy, split) and the
two standard encodings of vertex labels into edge labels.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
from dataclasses import dataclass, field

from .exceptions import AlphabetClash, BadArity, SelfLoopInTopology
from .graph import EMPTY_GRAPH, UNLABELED, Graph, canonical_form
from .rewrite import StepRecord, _expand, normalize
from .rules import CONTEXT as CTX
from .rules import QuasiRule, RuleSketch, build_rule, desugar_rule


# -- wait-for graphs ---------------------------------------------------------


def _create_rule() -> QuasiRule:
    return build_rule(EMPTY_GRAPH, {}, Graph([0]), [])


def _destroy_rule() -> QuasiRule:
    # No type edges: only an isolated process can be destroyed.
    return build_rule(Graph([0]), {}, EMPTY_GRAPH, [])


def make_n_of_m_rule(n: int, m: int) -> QuasiRule:
    """Atomic creation of an n-out-of-m request.

    The left side wants an unblocked requester (vertex 0) and m distinct
    target processes; the right side adds a request vertex wired to all
    targets, carrying one z loop and n s loops.
    """
    if not 0 < n <= m:
        raise BadArity(f"need 0 < n <= m, got n={n}, m={m}")
    requester = 0
    targets = list(range(1, m + 1))
    lhs = Graph([requester, *targets])
    types = {"rq-in": (CTX, requester)}
    for i in targets:
        types[f"t{i}-in"] = (CTX, i)
        types[f"t{i}-out"] = (i, CTX)
    request = m + 1
    rhs_edges = [(0, requester, UNLABELED, request)]
    rhs_edges += [(i, request, UNLABELED, t) for i, t in enumerate(targets, start=1)]
    rhs_edges += [(m + 1, request, "z", request)]
    rhs_edges += [(m + 2 + i, request, "s", request) for i in range(n)]
    rhs = Graph([requester, *targets, request], rhs_edges)
    return build_rule(lhs, types, rhs, [(s, t, key) for key, (s, t) in types.items()])


def _ext_rule(add_s_loop: bool) -> QuasiRule:
    """Extend an existing request by one more target process.

    Vertex 0 is the requester, 1 the new target, 2 the request vertex.  The
    loop placeholder on the request admits its s loops, the outgoing
    placeholder its edges to the targets already wired.
    """
    requester, target, request = 0, 1, 2
    lhs = Graph([requester, target, request],
                [(0, requester, UNLABELED, request), (1, request, "z", request)])
    types = {
        "rq-in": (CTX, requester),
        "r-loop": (request, request),
        "r-out": (request, CTX),
        "t-in": (CTX, target),
        "t-out": (target, CTX),
    }
    rhs_edges = [(10, requester, UNLABELED, request), (11, request, "z", request),
                 (12, request, UNLABELED, target)]
    if add_s_loop:
        rhs_edges.append((13, request, "s", request))
    rhs = Graph([requester, target, request], rhs_edges)
    return build_rule(lhs, types, rhs, [(s, t, key) for key, (s, t) in types.items()])


def _grant_rule() -> QuasiRule:
    """An unblocked process grants one edge of a pending request.

    Vertex 0 requests, 1 grants, 2 is the request vertex.  One s loop and
    the granted edge disappear; the z loop and everything else on the
    request ride along on placeholders.
    """
    requester, granter, request = 0, 1, 2
    lhs = Graph([requester, granter, request],
                [(0, requester, UNLABELED, request),
                 (1, request, UNLABELED, granter),
                 (2, request, "s", request)])
    types = {
        "rq-in": (CTX, requester),
        "g-in": (CTX, granter),
        "r-out": (request, CTX),
        "r-loop": (request, request),
    }
    rhs = Graph([requester, granter, request],
                [(10, requester, UNLABELED, request)])
    return build_rule(lhs, types, rhs, [(s, t, key) for key, (s, t) in types.items()])


def _resolve_rule() -> QuasiRule:
    """A request whose s loops are all granted disappears entirely."""
    lhs = Graph([0], [(0, 0, "z", 0)])
    return build_rule(lhs, {"in": (CTX, 0), "out": (0, CTX)}, EMPTY_GRAPH, [])


def _clone_rules() -> tuple[QuasiRule, QuasiRule]:
    """Offload incoming requests of an overloaded process onto a clone.

    The three matched requests keep their own wiring through name
    annotations; all further incoming requests move to the clone.  The
    second rule covers a blocked process, whose own pending request is
    replicated for the clone.
    """
    p, r1, r2, r3 = 0, 1, 2, 3
    names = {r1: ("r1",), r2: ("r2",), r3: ("r3",)}

    lhs1 = Graph([p, r1, r2, r3],
                 [(0, r1, UNLABELED, p), (1, r2, UNLABELED, p), (2, r3, UNLABELED, p)])
    clone = 4
    rhs1 = Graph([p, r1, r2, r3, clone],
                 [(10, r1, UNLABELED, p), (11, r2, UNLABELED, p),
                  (12, r3, UNLABELED, clone)])
    clone1 = desugar_rule(RuleSketch(
        lhs1, rhs1,
        lhs_names=dict(names), rhs_names=dict(names),
        lhs_types={"p-in": (CTX, p)},
        rhs_types=[(CTX, clone, "p-in")],
    ))

    req = 4
    lhs2 = Graph([p, r1, r2, r3, req],
                 [(0, r1, UNLABELED, p), (1, r2, UNLABELED, p), (2, r3, UNLABELED, p),
                  (3, p, UNLABELED, req)])
    clone, creq = 5, 6
    rhs2 = Graph([p, r1, r2, r3, req, clone, creq],
                 [(10, r1, UNLABELED, p), (11, r2, UNLABELED, p),
                  (12, p, UNLABELED, req),
                  (13, r3, UNLABELED, clone), (14, clone, UNLABELED, creq)])
    clone2 = desugar_rule(RuleSketch(
        lhs2, rhs2,
        lhs_names=dict(names), rhs_names=dict(names),
        lhs_types={"p-in": (CTX, p), "req-loop": (req, req), "req-out": (req, CTX)},
        rhs_types=[(CTX, clone, "p-in"),
                   (req, req, "req-loop"), (req, CTX, "req-out"),
                   (creq, creq, "req-loop"), (creq, CTX, "req-out")],
    ))
    return clone1, clone2


def waitfor_grammar() -> dict[str, QuasiRule]:
    """Rules generating exactly the valid wait-for nets from the empty graph."""
    return {
        "create": _create_rule(),
        "1-of-1": make_n_of_m_rule(1, 1),
        "ext-0": _ext_rule(add_s_loop=False),
        "ext-1": _ext_rule(add_s_loop=True),
    }


def waitfor_system() -> dict[str, QuasiRule]:
    """The full behavioral rule set for wait-for nets."""
    clone1, clone2 = _clone_rules()
    return {
        "create": _create_rule(),
        "destroy": _destroy_rule(),
        "1-of-1": make_n_of_m_rule(1, 1),
        "2-of-2": make_n_of_m_rule(2, 2),
        "grant": _grant_rule(),
        "resolve": _resolve_rule(),
        "clone-1": clone1,
        "clone-2": clone2,
    }


def deadlock_rules() -> dict[str, QuasiRule]:
    """The terminating restriction used for deadlock detection."""
    return {
        "grant": _grant_rule(),
        "resolve": _resolve_rule(),
        "destroy": _destroy_rule(),
    }


# Built on first use, once per process: each rule keeps its matcher and plans.
_deadlock_rules = functools.cache(deadlock_rules)


@dataclass
class WaitForNet:
    """A wait-for graph plus its vertex classification."""

    graph: Graph
    processes: frozenset[int] = field(init=False)
    requests: frozenset[int] = field(init=False)

    def __post_init__(self):
        loops = {v: [] for v in self.graph.vertices}
        for s, lab, t in self.graph.edges.values():
            if s == t:
                loops[s].append(lab)
        self.processes = frozenset(v for v, ls in loops.items() if not ls)
        self.requests = frozenset(v for v, ls in loops.items()
                                  if Counter(ls)["z"] == 1
                                  and set(ls) <= {"z", "s"})

    def violations(self) -> list[str]:
        g = self.graph
        out = []
        bad_labels = g.labels() - {"z", "s", UNLABELED}
        if bad_labels:
            out.append(f"labels outside the wait-for alphabet: {sorted(bad_labels)}")
        unclassified = g.vertices - self.processes - self.requests
        if unclassified:
            out.append(f"vertices neither process nor request: {sorted(unclassified)}")
        for e, (s, lab, t) in g.sorted_edges():
            if s == t:
                if lab not in ("z", "s") or s not in self.requests:
                    out.append(f"loop {e} is not a z/s loop on a request vertex")
            elif lab != UNLABELED:
                out.append(f"edge {e} between distinct vertices must be unlabeled")
            elif not ((s in self.processes and t in self.requests)
                      or (s in self.requests and t in self.processes)):
                out.append(f"edge {e} does not join a process and a request")
        for r in sorted(self.requests):
            incoming = [e for e in g.in_edges(r) if g.src(e) != r]
            outgoing = [e for e in g.out_edges(r) if g.tgt(e) != r]
            if len(incoming) != 1:
                out.append(f"request {r} needs exactly one requester, "
                           f"has {len(incoming)}")
            if not outgoing:
                out.append(f"request {r} has no target")
            tgts = [g.tgt(e) for e in outgoing]
            if len(set(tgts)) != len(tgts):
                out.append(f"request {r} targets a process twice")
            if incoming and g.src(incoming[0]) in tgts:
                out.append(f"request {r} targets its own requester")
        for p in sorted(self.processes):
            requests_out = [e for e in g.out_edges(p)]
            if len(requests_out) > 1:
                out.append(f"process {p} has more than one outgoing request")
        return out

    def is_valid(self) -> bool:
        return not self.violations()


@dataclass(frozen=True)
class DeadlockReport:
    deadlocked: bool
    normal_form: Graph
    trace: tuple[StepRecord, ...]

    @property
    def verdict(self) -> str:
        return "deadlocked" if self.deadlocked else "deadlockFree"


def detect_deadlock(net: WaitForNet | Graph, max_steps: int = 10000) -> DeadlockReport:
    """Normalize under {grant, resolve, destroy}; a nonempty normal form
    means some processes can never be drained, i.e. a deadlock."""
    g = net.graph if isinstance(net, WaitForNet) else net
    nf, trace = normalize(g, _deadlock_rules(), "first", max_steps=max_steps)
    return DeadlockReport(not nf.is_empty(), nf, tuple(trace))


# -- Dijkstra-Scholten termination detection ---------------------------------


def _send_rule(k: int | None = None) -> QuasiRule:
    """A tree member (0) sends a basic message to a neighbour (1) and counts
    it with an s loop.  With ``k``, the sender's budget vertex (2) also
    trades its ``left-k`` loop for ``left-(k-1)``: a plain vertex, so its
    budget edge and loop are all it may have."""
    lhs = [(0, 0, "t", 0), (1, 0, "e", 1)]
    rhs = [(10, 0, "t", 0), (11, 0, "e", 1), (12, 0, "s", 0), (13, 0, "b", 1)]
    if k is not None:
        lhs += [(2, 0, "budget", 2), (3, 2, f"left-{k}", 2)]
        rhs += [(14, 0, "budget", 2), (15, 2, f"left-{k - 1}", 2)]
    vertices = [0, 1] if k is None else [0, 1, 2]
    return desugar_rule(RuleSketch(Graph(vertices, lhs), Graph(vertices, rhs),
                                   black=frozenset({0, 1})))


def dijkstra_scholten_system() -> dict[str, QuasiRule]:
    """The six tree-maintenance rules of the termination detection algorithm.

    Black-marked vertices are fully permissive: every placeholder edge among
    them and the context is generated and carried over unchanged.  Plain
    vertices admit no loops beyond those drawn, which is what gates the
    join, quit and announce rules.
    """
    rec_b_in_tree = desugar_rule(RuleSketch(
        Graph([0, 1], [(0, 1, "t", 1), (1, 0, "b", 1)]),
        Graph([0, 1], [(10, 1, "t", 1), (11, 1, "c", 0)]),
        black=frozenset({0, 1}),
    ))
    rec_b_join = desugar_rule(RuleSketch(
        Graph([0, 1], [(0, 0, "b", 1)]),
        Graph([0, 1], [(10, 0, "p", 1), (11, 1, "t", 1)]),
        black=frozenset({0}),
        lhs_types={"k1": (0, 1), "k2": (1, 0), "k3": (CTX, 1), "k4": (1, CTX)},
        rhs_types=[(0, 1, "k1"), (1, 0, "k2"), (CTX, 1, "k3"), (1, CTX, "k4")],
    ))
    rec_c = desugar_rule(RuleSketch(
        Graph([0, 1], [(0, 1, "c", 0), (1, 0, "s", 0)]),
        Graph([0, 1]),
        black=frozenset({0, 1}),
    ))
    quit_rule = desugar_rule(RuleSketch(
        Graph([0, 1], [(0, 0, "p", 1), (1, 1, "t", 1)]),
        Graph([0, 1], [(10, 1, "c", 0)]),
        black=frozenset({0}),
        lhs_types={"k1": (0, 1), "k2": (1, 0), "k3": (CTX, 1), "k4": (1, CTX)},
        rhs_types=[(0, 1, "k1"), (1, 0, "k2"), (CTX, 1, "k3"), (1, CTX, "k4")],
    ))
    announce = build_rule(
        Graph([0], [(0, 0, "i", 0), (1, 0, "t", 0)]),
        {"in": (CTX, 0), "out": (0, CTX)},
        Graph([0], [(10, 0, "i", 0)]),
        [(CTX, 0, "in"), (0, CTX, "out")],
    )
    return {
        "snd-b": _send_rule(),
        "rec-b-1": rec_b_in_tree,
        "rec-b-2": rec_b_join,
        "rec-c": rec_c,
        "quit": quit_rule,
        "announce": announce,
    }


@dataclass(frozen=True)
class DsState:
    """A termination-detection state graph."""

    graph: Graph

    def violations(self) -> list[str]:
        g = self.graph
        out = []
        bad = g.labels() - {"e", "b", "c", "p", "i", "t", "s"}
        if bad:
            out.append(f"labels outside the algorithm alphabet: {sorted(bad)}")
        initiators = [e for e, (s, lab, t) in g.edges.items()
                      if lab == "i" and s == t]
        if len(initiators) != 1:
            out.append(f"expected exactly one initiator loop, found {len(initiators)}")
        t_loops = {s for s, lab, t in g.edges.values() if lab == "t" and s == t}
        for e, (s, lab, t) in g.sorted_edges():
            if lab in ("i", "t", "s") and s != t:
                out.append(f"edge {e}: label {lab} is only valid as a loop")
            if lab in ("e", "b", "c", "p") and s == t:
                out.append(f"edge {e}: label {lab} must join distinct vertices")
            if lab == "s" and s not in t_loops:
                out.append(f"counter loop {e} on a vertex outside the tree")
        return out


def ds_initial_network(links: list[tuple[int, int]], initiator: int) -> DsState:
    """Encode an undirected, loop-free network with a distinguished initiator.

    Each undirected link becomes one e-edge in either direction, so either
    endpoint can send along it; the initiator starts inside the tree.
    """
    vertices = {initiator}
    for u, v in links:
        if u == v:
            raise SelfLoopInTopology(f"link {u}-{v} is a self loop")
        vertices.update((u, v))
    triples = [(a, "e", b) for u, v in sorted(set(links)) for a, b in ((u, v), (v, u))]
    triples += [(initiator, "i", initiator), (initiator, "t", initiator)]
    return DsState(Graph.from_triples(vertices, triples))


@dataclass
class DsExploration:
    """Result of exhaustively running the algorithm with a send budget."""

    states: list[Graph]
    announce_states: list[Graph]
    safety_violations: list[Graph]
    truncated: bool


def announce_safe(g: Graph) -> bool:
    """No message in transit and no tree membership outside the initiator."""
    initiators = {s for s, lab, t in g.edges.values() if lab == "i" and s == t}
    return not any(lab in ("b", "c") or (lab == "t" and s not in initiators)
                   for s, lab, _ in g.edges.values())


@functools.cache
def _walk_rules(max_sends: int) -> dict[str, QuasiRule]:
    """``dijkstra_scholten_system`` with one budgeted send rule per k in
    1..max_sends in place of ``snd-b``."""
    system = dijkstra_scholten_system()
    sends = {f"snd-b-{k}": _send_rule(k) for k in range(1, max_sends + 1)}
    rest = {name: rule for name, rule in system.items() if name not in ("snd-b", "announce")}
    return {"announce": system["announce"], **sends, **rest}


def _with_budgets(g: Graph, k: int) -> Graph:
    """``g`` with a budget vertex per process, holding one ``left-k`` loop;
    budget vertex b takes the edge ids b + 1 and b + 2."""
    budgets = dict(zip(sorted(g.vertices), itertools.count(g.max_id() + 1, 3)))
    edges = {**g.edges, **{b + 1: (v, "budget", b) for v, b in budgets.items()},
             **{b + 2: (b, f"left-{k}", b) for b in budgets.values()}}
    return Graph(g.vertices.union(budgets.values()), edges)


def _without_budgets(g: Graph) -> Graph:
    budgets = {t for _, lab, t in g.edges.values() if lab == "budget"}
    return Graph._trusted(g.vertices - budgets, {e: x for e, x in g.edges.items()
                                                 if x[1] != "budget" and x[0] not in budgets})


def ds_explore(initial: DsState | Graph, max_sends_per_process: int = 2,
               max_depth: int | None = None) -> DsExploration:
    """Exhaustive state-space walk with at most the given sends per process.

    A process's sends left are in the state graph: a ``budget`` edge to a
    vertex of its own with one ``left-k`` loop, which only the send rule of
    that k matches and lowers.  The walk is breadth-first over the
    expansion of ``successors``, which builds and steps one redex per orbit
    of the state's automorphisms, twin classes included, and labels each
    result once against the walk's seen set, to ``max_depth`` steps.  It
    records every state (budget vertices removed), those in which the
    announce rule has a redex, and, among these, those where a message is in
    transit or a non-initiator still sits in the tree.  ``truncated`` tells
    that deeper states were left: the walk's rules are deterministic, so the
    map cap (``PGR_MAX_MAPS``), read once per state, never binds.
    """
    g0 = initial.graph if isinstance(initial, DsState) else initial
    system = _walk_rules(max_sends_per_process)
    start = _with_budgets(g0, max_sends_per_process)
    seen, queue = {canonical_form(start)}, deque([(0, start)])
    out = DsExploration([], [], [], False)
    while queue and (max_depth is None or queue[0][0] <= max_depth):
        depth, g = queue.popleft()
        state = _without_budgets(g)
        out.states.append(state)
        steps, fired, _ = _expand(g, system, seen)
        if "announce" in fired:
            out.announce_states.append(state)
            if not announce_safe(state):
                out.safety_violations.append(state)
        queue.extend((depth + 1, succ) for _, succ in steps)
    out.truncated = bool(queue)
    return out


# -- elementary structural rules ----------------------------------------------


def elementary_rules() -> dict[str, QuasiRule]:
    """Merge, copy and split rules over a single edge or vertex."""
    merge = build_rule(
        Graph([0, 1], [(0, 0, "a", 1)]),
        {"in0": (CTX, 0), "out0": (0, CTX), "loop0": (0, 0),
         "cross01": (0, 1), "cross10": (1, 0),
         "in1": (CTX, 1), "out1": (1, CTX), "loop1": (1, 1)},
        Graph([10]),
        [(CTX, 10, "in0"), (10, CTX, "out0"), (10, 10, "loop0"),
         (10, 10, "cross01"), (10, 10, "cross10"),
         (CTX, 10, "in1"), (10, CTX, "out1"), (10, 10, "loop1")],
    )
    merge_strict = build_rule(
        Graph([0, 1], [(0, 0, "a", 1)]),
        {"in0": (CTX, 0), "out0": (0, CTX), "in1": (CTX, 1), "out1": (1, CTX)},
        Graph([10]),
        [(CTX, 10, "in0"), (10, CTX, "out0"), (CTX, 10, "in1"), (10, CTX, "out1")],
    )
    copy = build_rule(
        Graph([0]),
        {"in": (CTX, 0), "loop": (0, 0), "out": (0, CTX)},
        Graph([10, 11]),
        [(CTX, 10, "in"), (10, 10, "loop"), (10, CTX, "out"),
         (CTX, 11, "in"), (11, 11, "loop"), (11, CTX, "out")],
    )
    copy_partial = build_rule(
        Graph([0]),
        {"in": (CTX, 0), "loop": (0, 0), "out": (0, CTX)},
        Graph([10, 11]),
        [(CTX, 10, "in"), (10, 10, "loop"),
         (11, 11, "loop"), (11, CTX, "out")],
    )
    split = build_rule(
        Graph([0]),
        {"in-a": (CTX, 0), "loop-a": (0, 0), "out-a": (0, CTX),
         "in-b": (CTX, 0), "loop-b": (0, 0), "out-b": (0, CTX)},
        Graph([10, 11]),
        [(CTX, 10, "in-a"), (10, 10, "loop-a"), (10, CTX, "out-a"),
         (CTX, 11, "in-b"), (11, 11, "loop-b"), (11, CTX, "out-b")],
    )
    return {
        "merge": merge,
        "merge-strict": merge_strict,
        "copy": copy,
        "copy-partial": copy_partial,
        "split": split,
    }


# -- vertex label encodings ----------------------------------------------------


def encode_vertex_labels(g: Graph, vlabel: dict[int, str], mode: str = "loops") -> Graph:
    """Turn a vertex labeling into edge structure.

    ``loops`` adds one self loop per vertex carrying the vertex label and
    requires the two alphabets to be disjoint; ``root`` adds a fresh root
    vertex with exactly one labeled edge to every other vertex, leaving the
    root as the only vertex without incoming edges.
    """
    missing = g.vertices - set(vlabel)
    if missing:
        raise ValueError(f"vertices without a label: {sorted(missing)}")
    if mode == "loops":
        clash = set(vlabel.values()) & g.labels()
        if clash:
            raise AlphabetClash(f"vertex labels also used on edges: {sorted(clash)}")
        eid = itertools.count(g.max_id() + 1)
        edges = dict(g.edges)
        for v in sorted(g.vertices):
            edges[next(eid)] = (v, vlabel[v], v)
        return Graph(g.vertices, edges)
    if mode == "root":
        fresh = itertools.count(g.max_id() + 1)
        root = next(fresh)
        edges = dict(g.edges)
        for v in sorted(g.vertices):
            edges[next(fresh)] = (root, vlabel[v], v)
        return Graph(g.vertices | {root}, edges)
    raise ValueError(f"unknown mode {mode!r}")


def drop_loops_rule() -> QuasiRule:
    """Strip every loop from one vertex of a root-encoded graph.

    The upper pattern vertex plays the root: it may not receive edges, and
    the placeholder binding its labeling edge pins which vertex is relabeled.
    """
    return build_rule(
        Graph([0, 1]),
        {"in": (CTX, 0), "out": (0, CTX), "loops": (0, 0),
         "vlab": (1, 0), "root-out": (1, CTX)},
        Graph([10, 11]),
        [(CTX, 10, "in"), (10, CTX, "out"),
         (11, 10, "vlab"), (11, CTX, "root-out")],
    )
