"""Independent reference answers the benchmark checks pgr's outputs against.

Nothing here calls into pgr: graphs and rules are read as plain data
(vertex sets, ``{edge id: (src, label, tgt)}`` maps, type-edge maps and the
trace), and every answer is recomputed from the definitions by brute force.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

CTX = "ctx"  # the context endpoint of a placeholder edge


# -- wait-for nets --------------------------------------------------------------


def free_processes(procs: int, requests: list[tuple[int, tuple[int, ...], int]]) -> set[int]:
    """Fixpoint of "a request resolves once n of its targets are free".

    ``requests`` holds ``(requester, targets, n)``; processes are ``0..procs-1``
    and a process without a request is free from the start.
    """
    free = set(range(procs)) - {p for p, _, _ in requests}
    pending = list(requests)
    changed = True
    while changed:
        changed = False
        for req in list(pending):
            requester, targets, n = req
            if sum(t in free for t in targets) >= n:
                free.add(requester)
                pending.remove(req)
                changed = True
    return free


def waitfor_problems(vertices, edges: dict) -> list[str]:
    """Well-formedness of a wait-for net given as plain data; empty means valid.

    A request vertex carries one ``z`` loop and at most as many ``s`` loops as
    it has targets; it has exactly one requester (a process) and at least one
    target, no target twice and never its own requester.  A process has no
    loops and at most one outgoing request.
    """
    loops: dict[int, Counter] = {v: Counter() for v in vertices}
    out: dict[int, list[int]] = {v: [] for v in vertices}
    inc: dict[int, list[int]] = {v: [] for v in vertices}
    problems = []
    for s, lab, t in edges.values():
        if s == t:
            loops[s][lab] += 1
        elif lab != "_":
            problems.append(f"labelled edge {s}->{t}")
        else:
            out[s].append(t)
            inc[t].append(s)
    requests = {v for v in vertices if loops[v]}
    for v in vertices:
        if v in requests:
            if loops[v]["z"] != 1 or set(loops[v]) - {"z", "s"}:
                problems.append(f"request {v} has loops {dict(loops[v])}")
            if len(inc[v]) != 1 or inc[v][0] in requests:
                problems.append(f"request {v} has requesters {inc[v]}")
            if not out[v] or len(set(out[v])) != len(out[v]):
                problems.append(f"request {v} has targets {out[v]}")
            if any(t in requests for t in out[v]) or set(inc[v]) & set(out[v]):
                problems.append(f"request {v} targets {out[v]} badly")
            if loops[v]["s"] > len(out[v]):
                problems.append(f"request {v} waits for more grants than targets")
        elif len(out[v]) > 1 or any(t not in requests for t in out[v]):
            problems.append(f"process {v} has requests {out[v]}")
    return problems


# -- isomorphism classes -------------------------------------------------------


class Classes:
    """Isomorphism classes of labelled multigraphs, decided exactly.

    Colour refinement (labels and edge directions included, colours shared
    by every graph added) narrows the candidates; a backtracking search for
    a vertex bijection that preserves every (src, label, tgt) multiplicity
    then decides each pair.
    """

    def __init__(self):
        self._intern: dict = {}
        self._reps: dict[tuple, list[tuple]] = {}
        self.count = 0

    def add(self, vertices, edges: dict) -> bool:
        """Add a graph; True when it opens a new class."""
        colors = self._colors(vertices, edges)
        key = (len(vertices), len(edges), tuple(sorted(colors.values())))
        pairs = Counter(edges.values())
        group = self._reps.setdefault(key, [])
        if any(_isomorphic(colors, pairs, other) for other in group):
            return False
        group.append((colors, pairs))
        self.count += 1
        return True

    def _colors(self, vertices, edges: dict) -> dict:
        out = {v: [] for v in vertices}
        inc = {v: [] for v in vertices}
        for s, lab, t in edges.values():
            out[s].append((lab, t))
            inc[t].append((lab, s))
        colors = {v: 0 for v in vertices}
        for _ in range(len(vertices)):
            sigs = {v: (colors[v],
                        tuple(sorted((lab, colors[t]) for lab, t in out[v])),
                        tuple(sorted((lab, colors[s]) for lab, s in inc[v])))
                    for v in vertices}
            colors = {v: self._intern.setdefault(sig, len(self._intern))
                      for v, sig in sigs.items()}
        return colors


def _isomorphic(colors_a: dict, pairs_a: Counter, b: tuple) -> bool:
    colors_b, pairs_b = b
    by_color: dict[int, list[int]] = {}
    for w, c in colors_b.items():
        by_color.setdefault(c, []).append(w)
    touching: dict[int, list[tuple]] = {v: [] for v in colors_a}
    for s, lab, t in pairs_a:
        touching[s].append((s, lab, t))
        touching[t].append((s, lab, t))
    order = sorted(colors_a, key=lambda v: (len(by_color[colors_a[v]]), v))
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in by_color[colors_a[v]]:
            if w in used:
                continue
            image[v] = w
            if all(pairs_a[(s, lab, t)] == pairs_b[(image[s], lab, image[t])]
                   for s, lab, t in touching[v] if s in image and t in image):
                used.add(w)
                if extend(i + 1):
                    return True
                used.discard(w)
            del image[v]
        return False

    return extend(0)


# -- termination detection ------------------------------------------------------


def quiescent(edges: dict) -> bool:
    """No basic or control message in flight and only the initiator in the tree."""
    initiators = {s for s, lab, t in edges.values() if lab == "i" and s == t}
    return all(lab not in ("b", "c") and (lab != "t" or s in initiators)
               for s, lab, t in edges.values())


# -- rewrite steps --------------------------------------------------------------


def embeddings(host_vertices, host_edges: dict, pat_vertices, pat_edges: dict):
    """Every vertex- and edge-injective, label-preserving map of the pattern."""
    pvs = sorted(pat_vertices)
    pes = sorted(pat_edges)
    for image in itertools.permutations(sorted(host_vertices), len(pvs)):
        vm = dict(zip(pvs, image))
        pools = []
        for e in pes:
            s, lab, t = pat_edges[e]
            pools.append([f for f, tr in host_edges.items() if tr == (vm[s], lab, vm[t])])
        for choice in itertools.product(*pools):
            if len(set(choice)) == len(choice):
                yield vm, dict(zip(pes, choice))


class RuleData(NamedTuple):
    """A rule as plain data; placeholder maps are ``{id: (src, tgt)}``."""

    lhs_vertices: frozenset
    lhs_edges: dict
    left_types: dict
    rhs_vertices: frozenset
    rhs_edges: dict
    right_types: dict
    trace: dict

    @classmethod
    def of(cls, rule) -> "RuleData":
        return cls(rule.lhs.pattern.vertices, dict(rule.lhs.pattern.edges),
                   dict(rule.lhs.ptype.edges), rule.rhs.pattern.vertices,
                   dict(rule.rhs.pattern.edges), dict(rule.rhs.ptype.edges),
                   dict(rule.trace))

    def replacement_size(self, h_l: dict) -> int:
        """Edges a step's new patch has: per right placeholder, one per old
        patch edge bound to its trace image."""
        bound = Counter(h_l.values())
        return sum(bound[self.trace[k]] for k in self.right_types)


def redexes(host_vertices, host_edges: dict, rule: RuleData) -> list[tuple[dict, dict, dict]]:
    """Every (vertex map, edge map, adherence map) at which the rule applies.

    A patch edge (not matched, touching the match) may stand in for a left
    placeholder when each of its endpoints is the match image of the
    placeholder's endpoint, or a context vertex where the placeholder says
    ``ctx``.  One redex per total choice of placeholders.
    """
    out = []
    for vm, em in embeddings(host_vertices, host_edges, rule.lhs_vertices, rule.lhs_edges):
        pre = {h: p for p, h in vm.items()}
        matched = set(em.values())
        patch = sorted(e for e, (s, _, t) in host_edges.items()
                       if e not in matched and (s in pre or t in pre))
        options = []
        for e in patch:
            s, _, t = host_edges[e]
            want = (pre.get(s, CTX), pre.get(t, CTX))
            options.append([k for k in sorted(rule.left_types)
                            if rule.left_types[k] == want])
        for choice in itertools.product(*options):
            out.append((vm, em, dict(zip(patch, choice))))
    return out


def step_result(host_vertices, host_edges: dict, rule: RuleData, vm: dict, h_l: dict):
    """The step's result as (context vertices, context edges, fresh vertices,
    edge multiset), fresh right-pattern vertices named ``("new", v)``.

    Each right placeholder re-creates every patch edge bound to the left
    placeholder it traces to, with the label kept; an endpoint the right
    placeholder puts at ``ctx`` is the context end of the old edge.
    """
    gone = set(vm.values())
    ctx_vertices = set(host_vertices) - gone
    ctx_edges = {e: tr for e, tr in host_edges.items()
                 if tr[0] in ctx_vertices and tr[2] in ctx_vertices}
    edges = Counter((("old", s), lab, ("old", t)) for s, lab, t in ctx_edges.values())
    edges.update((("new", s), lab, ("new", t)) for s, lab, t in rule.rhs_edges.values())
    for k, (ts, tt) in rule.right_types.items():
        left = rule.trace[k]
        lts, ltt = rule.left_types[left]
        for e, bound in h_l.items():
            if bound != left:
                continue
            s, lab, t = host_edges[e]
            ctx = s if lts == CTX else t if ltt == CTX else None
            src = ("old", ctx) if ts == CTX else ("new", ts)
            tgt = ("old", ctx) if tt == CTX else ("new", tt)
            edges[(src, lab, tgt)] += 1
    return ctx_vertices, ctx_edges, sorted(rule.rhs_vertices), edges


def same_result(expected, vertices, edges: dict) -> bool:
    """Whether a step result equals the expected one up to naming the fresh
    vertices; context vertices and context edge ids must be kept verbatim."""
    ctx_vertices, ctx_edges, fresh, want = expected
    if not ctx_vertices <= set(vertices):
        return False
    if any(edges.get(e) != tr for e, tr in ctx_edges.items()):
        return False
    others = sorted(set(vertices) - ctx_vertices)
    if len(others) != len(fresh):
        return False
    got = Counter(edges.values())
    for image in itertools.permutations(others):
        name = {("new", v): w for v, w in zip(fresh, image)}
        name.update({("old", v): v for v in ctx_vertices})
        if Counter({(name[s], lab, name[t]): n for (s, lab, t), n in want.items()}) == got:
            return True
    return False
