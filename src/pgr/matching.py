"""Locating rule matches inside a host graph.

A redex is a located match: an injective embedding of the left pattern, the
induced context/patch/match decomposition of the host, and one adherence map
assigning every patch edge to a left type edge.  A host contains a redex for
a rule exactly when some subgraph is isomorphic to the left pattern and every
edge incident to it (but outside it) adheres to some left type edge.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from operator import eq, ge, itemgetter
from typing import NamedTuple

from .graph import Graph, PatchDecomposition, Renaming, _labelling, patch_edges
from .rules import (CONTEXT, PatchType, QuasiRule, adherence_maps, default_map_cap,
                    match_positions)


@dataclass
class Redex:
    """One way a rule matches a host, including the chosen adherence map; the
    parts of ``decomposition`` are derived on first use (a step).  ``capped``:
    the maps of this embedding were listed only up to the map cap."""

    rule: QuasiRule
    embedding: Renaming
    decomposition: PatchDecomposition
    h_l: dict[int, int]
    capped: bool = False

    def match_summary(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(sorted(self.embedding.vmap.values())),
                tuple(sorted(self.embedding.emap.values())))


def _embedding_key(r: Renaming):
    return (tuple(sorted(r.vmap.values())), tuple(sorted(r.emap.values())),
            tuple(sorted(r.vmap.items())), tuple(sorted(r.emap.items())))


class _Matcher:
    """What a search needs of a pattern and its left patch type, if any;
    built once per left scheme (``PatchType._matcher``), else per call;
    ``labels`` are the pattern's, all of which a host with a match has.
    ``needs[v]``: ``(key, n, op)``, the image of v has ``op`` (eq or ge) n
    edges counted by ``Graph.edge_counts`` under key: at least the pattern's
    count per side and label, and with a type exactly the pattern's on each
    side (or the loops) that no type edge opens at v, 0 included."""

    def __init__(self, pattern: Graph, ptype: PatchType | None):
        self.pattern, self.vertices, self.plans = pattern, sorted(pattern.vertices), {}
        self.labels = pattern.labels()
        self.groups = sorted(Counter(pattern.edges.values()).items())  # per triple
        self.edges = sorted(pattern.edges, key=lambda e: (pattern.edges[e], e))  # in that order
        shapes = ptype.by_shape() if ptype is not None else {}
        opened = {("out", s) for s, _ in shapes} | {("in", t) for _, t in shapes} | \
            {("loop", s) for s, t in shapes if s == t}
        self.needs = {}
        for v in self.vertices:
            counts = pattern.edge_counts(v)
            self.needs[v] = [((side, None), counts.get((side, None), 0), eq)
                             for side in ("out", "in", "loop")
                             if ptype is not None and (side, v) not in opened]
            self.needs[v] += [(k, n, ge) for k, n in counts.items() if k[1] is not None]

    def plan(self, root: int):
        """Breadth-first order from ``root``, then from each other component's
        first vertex; ``via[v]``: the placed neighbour, label and direction of
        the edge that reached v (None at a root); ``checks[v]``: multiplicities
        of edges to earlier vertices, except loops (needs) and lone tree edges."""
        if root in self.plans:
            return self.plans[root]
        pattern, order, via, reached = self.pattern, [], {}, set()
        for r in (root, *self.vertices):
            if r not in via:
                via[r] = None
                queue = [r]
                for v in queue:
                    for e in sorted(pattern.incident_edges(v)):
                        s, lab, t = pattern.edges[e]
                        if (w := t if s == v else s) not in via:
                            via[w] = (v, lab, s == v)
                            reached.add((s, lab, t))
                            queue.append(w)
                order += queue
        checks: dict[int, list] = {v: [] for v in order}
        for (s, lab, t), n in self.groups:
            if s != t and (n > 1 or (s, lab, t) not in reached):
                checks[max(s, t, key=order.index)].append((s, lab, t, n))
        self.plans[root] = order, via, checks
        return self.plans[root]


def _between(host: Graph, hs: int, lab: str, ht: int) -> list[int]:
    return [e for e in host.out_edges(hs) if host.edges[e] == (hs, lab, ht)]


def _vertex_maps(host: Graph, plan, first, scan, fits, used: set[int]) -> list[dict[int, int]]:
    """Injective vertex maps along ``plan`` that pass ``fits``, keep every
    edge multiplicity and avoid ``used``.  The plan's root takes its
    candidates from ``first``, any other component root from ``scan(v)``,
    every later vertex from the edges of the neighbour that reached it.
    Depth-first, one candidate iterator per level, each choice undone
    before the next is tried."""
    order, via, checks = plan
    edges, used = host.edges, set(used)

    def candidates(v):
        if via[v] is None:
            return iter(first if v == order[0] else scan(v))
        u, lab, out = via[v]
        es = host.out_edges(vmap[u]) if out else host.in_edges(vmap[u])
        return iter(dict.fromkeys(edges[e][2 if out else 0] for e in es if edges[e][1] == lab))

    vmaps, vmap = [], {}
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        used.discard(vmap.pop(v, None))
        for w in stack[-1]:
            if w not in used and fits(v, w):
                vmap[v] = w
                if not checks[v] or all(len(_between(host, vmap[s], lab, vmap[t])) >= n
                                        for s, lab, t, n in checks[v]):
                    break
        else:
            vmap.pop(v, None)
            stack.pop()
            continue
        used.add(w)
        if len(stack) == len(order):
            vmaps.append(dict(vmap))
        else:
            stack.append(candidates(order[len(stack)]))
    return vmaps


def find_pattern_embeddings(host: Graph, pattern: Graph, ptype: PatchType | None = None,
                            anchors: Set[int] | None = None) -> list[Renaming]:
    """All vertex- and edge-injective embeddings of ``pattern`` into ``host``.

    Each pattern vertex's needs (see ``_Matcher``) are compared with the
    edge counts that the host's index keeps per vertex; with ``ptype``, a
    rule's left patch type, they leave out embeddings that cannot adhere.
    The search starts at the rarest label and follows edges.  An anchor
    roots a search at each pattern vertex whose needs it meets, and tried
    anchors stay out of the image: only embeddings that meet ``anchors``
    are listed, each once.  The empty pattern has one (empty) embedding,
    which meets no anchor.  A pattern label missing from the host's label
    index gives ``[]`` before any search.  Results come in a canonical
    order: lexicographic on (sorted image vertices, sorted image edges, then
    the maps themselves); ``ptype`` and ``anchors`` only remove entries."""
    return [r for _, r in _embeddings(host, pattern, ptype, anchors)]


def _embeddings(host: Graph, pattern: Graph, ptype: PatchType | None,
                anchors: Set[int] | None, first: bool = False) -> list[tuple[tuple, Renaming]]:
    """``find_pattern_embeddings``, each paired with its ``_embedding_key``."""
    if not pattern.vertices:
        return [(_embedding_key(Renaming()), Renaming())] if anchors is None else []
    if ptype is None or (ptype.pattern is not pattern and ptype.pattern != pattern):
        m = _Matcher(pattern, ptype)
    else:
        m = ptype._matcher = ptype._matcher or _Matcher(pattern, ptype)
    _, _, index, host_counts = host._indexes()
    if not m.labels <= index.keys():
        return []
    best = {}  # rarest(v) per pattern vertex, worked out on first ask

    def fits(v, w):
        counts = host_counts[w]
        for key, n, op in m.needs[v]:
            if not op(counts.get(key, 0), n):
                return False
        return True

    def rarest(v):
        if v not in best:
            best[v] = min(((len(index[lab]), lab, side) for (side, lab), _, _ in m.needs[v]
                           if lab is not None), default=(len(host.edges) + 1, None, None))
        return best[v]

    def scan(v):
        _, lab, side = rarest(v)
        return (sorted(host.vertices) if lab is None else dict.fromkeys(
            host.edges[e][0 if side == "out" else 2] for e in index[lab]))

    if anchors is None:
        root = min(m.vertices, key=lambda v: (rarest(v)[0], v))
        vmaps = _vertex_maps(host, m.plan(root), scan(root), scan, fits, set())
    else:
        vmaps, tried = [], set()
        for a in sorted(anchors & host.vertices):
            for p in m.vertices:
                if fits(p, a):
                    vmaps += _vertex_maps(host, m.plan(p), (a,), scan, fits, tried)
            tried.add(a)
    # Per vertex map, each group of pattern edges onto its host edges (``first``: only the first n).
    pick = (lambda es, n: (es[:n],)) if first else itertools.permutations
    results = [Renaming._trusted(dict(vm), dict(zip(m.edges, itertools.chain(*choice))))
               for vm in vmaps for choice in itertools.product(*[pick(
                   _between(host, vm[s], lab, vm[t]), n) for (s, lab, t), n in m.groups])]
    return sorted(((_embedding_key(r), r) for r in results), key=itemgetter(0))


class _Entry(NamedTuple):
    key: tuple
    embedding: Renaming
    maps: list[dict[int, int]]  # each keyed by the patch edges, in id order
    capped: bool


def _redex_entries(host: Graph, rule: QuasiRule, cap: int, anchors: Set[int] | None = None):
    """Each embedding of ``rule`` in ``host`` whose patch adheres, in redex
    order, as an ``_Entry`` with its maps listed up to ``cap``."""
    for key, emb in _embeddings(host, rule.lhs.pattern, rule.lhs.ptype, anchors):
        if (x := _entry(host, rule, key, emb, cap)).maps:
            yield x


def _entry(host: Graph, rule: QuasiRule, key: tuple, emb: Renaming, cap: int) -> _Entry:
    pattern, je = rule.lhs.pattern, patch_edges(host, emb.image_vertices(), emb.image_edges())
    maps, cut = adherence_maps(host, je, rule.lhs.ptype, match_positions(pattern, emb), cap)
    return _Entry(key, emb, maps, cut)


def _twin_redexes(host: Graph, rule: QuasiRule, cap: int) -> list[Redex]:
    """The redexes of deterministic ``rule``, the first per vertex map up to the host's twins."""
    embs, first = _embeddings(host, rule.lhs.pattern, rule.lhs.ptype, None, True), {}
    if host._labelling is None:  # not labelled yet: labelled only if two maps adhere
        embs = [(key, emb) for key, emb in embs if _entry(host, rule, key, emb, cap).maps]
    twins = len(embs) > 1 and _labelling(host)[2] or {}
    for key, emb in embs:
        first.setdefault(frozenset((v, twins.get(w, w)) for v, w in emb.vmap.items()), (key, emb))
    return [Redex(rule, emb, PatchDecomposition(host, emb.image_vertices(), emb.image_edges(),
                                                list(x.maps[0])), x.maps[0])
            for key, emb in first.values() if (x := _entry(host, rule, key, emb, cap)).maps]


def find_redexes(host: Graph, rule: QuasiRule) -> tuple[list[Redex], bool]:
    """All redexes of ``rule`` in ``host`` in canonical order, and whether
    some map listing hit the map cap.  Per embedding, one redex per adherence
    map (a deterministic rule admits at most one), sharing one decomposition;
    an embedding whose patch, read off the host's edges, does not adhere is
    dropped before any decomposition is made.  It reads the map cap once."""
    redexes, truncated = [], False
    for _, emb, maps, capped in _redex_entries(host, rule, default_map_cap()):
        d = PatchDecomposition(host, emb.image_vertices(), emb.image_edges(), list(maps[0]))
        truncated = truncated or capped
        redexes += [Redex(rule, emb, d, h_l, capped) for h_l in maps]
    return redexes, truncated


class RedexSets:
    """The redexes of each rule of a system in a host that changes by steps.

    A step keeps the context of its redex and replaces only the patch J and
    the match M.  So an embedding whose image avoids M and the context ends
    of J keeps its edges, patch and maps.  At a context end whose edges in J
    all have a type edge the rule carries (``QuasiRule.carried``), only
    those edges' ids change: an embedding there that avoids M keeps its
    place, and only its patch ids and maps are read again.  Every other
    redex of the result meets a vertex the step created or otherwise
    changed the edges of.  Per rule, the embeddings that have maps are
    entries sorted by ``_embedding_key`` and indexed by image vertex.  A
    rule is searched in full when first asked for; the next ask after
    ``advance`` drops the entries at the touched vertices, re-reads those at
    the carried ones, searches (``_redex_entries``) anchored at the touched
    ones still in the host, if any, and merges the new entries in by bisection.
    """

    def __init__(self, host: Graph, system: dict[str, QuasiRule]):
        self.host, self.system, self.cap = host, system, default_map_cap()  # read once
        self._entries: dict[str, list[_Entry]] = {}
        self._at: dict[str, dict[int, set[tuple]]] = {}  # image vertex -> entry keys
        self._capped: dict[str, int] = {}  # entries whose maps were capped
        self._pending: dict[str, tuple[set[int], set[int]]] = {}  # touched, carried

    def entries(self, name: str) -> tuple[list[_Entry], bool]:
        """The entries of rule ``name`` in the current host, in redex order,
        and whether the map listing of any of them was capped."""
        found, rule = [], self.system[name]
        if name not in self._entries:
            self._entries[name], self._at[name], self._capped[name] = [], {}, 0
            self._pending[name] = set(), set()
            found = _redex_entries(self.host, rule, self.cap)
        entries, at, (touched, carried) = self._entries[name], self._at[name], self._pending[name]
        if touched or carried:
            for key in set().union(*(at.pop(v, ()) for v in touched)):
                x = entries.pop(bisect_left(entries, key, key=itemgetter(0)))
                self._capped[name] -= x.capped
                for v in x.embedding.vmap.values():
                    at.get(v, set()).discard(key)
            for key in set().union(*(at.get(v, ()) for v in carried)):
                i = bisect_left(entries, key, key=itemgetter(0))  # the key, so the place, stays
                x, entries[i] = entries[i], _entry(self.host, rule, key, entries[i].embedding,
                                                   self.cap)
                self._capped[name] += entries[i].capped - x.capped
            if anchors := touched & self.host.vertices:
                found = _redex_entries(self.host, rule, self.cap, anchors)
            self._pending[name] = set(), set()
        for x in found:
            insort(entries, x, key=itemgetter(0))
            self._capped[name] += x.capped
            for v in x.embedding.vmap.values():
                at.setdefault(v, set()).add(x.key)
        return entries, self._capped[name] > 0

    def redex(self, name: str, entry: _Entry, h_l: dict[int, int]) -> Redex:
        """The redex of an entry and one of its maps, in the current host
        (until the next step, when that host is a draft edited in place);
        the keys of ``h_l`` are its patch edges, as in ``find_redexes``."""
        emb = entry.embedding
        d = PatchDecomposition(self.host, emb.image_vertices(), emb.image_edges(), list(h_l))
        return Redex(self.system[name], emb, d, h_l, entry.capped)

    def advance(self, touched: set[int], carried: set[int]) -> None:
        """Note one step, which edits the host in place: ``touched`` holds the
        vertices it removed or created and the context ends of J's uncarried
        edges, ``carried`` the other context ends of J (whose edges got new ids)."""
        for pending_touched, pending_carried in self._pending.values():
            pending_touched |= touched
            pending_carried |= carried


def context_of(e: int, h: dict[int, int], patch: Graph,
               ptype: PatchType) -> frozenset[int]:
    """The context vertex that edge ``e`` of ``patch``, assigned by ``h`` to
    a type edge of ``ptype``, touches: ``{src}`` when that type edge starts
    at CONTEXT, ``{tgt}`` when it ends there, and the empty set otherwise."""
    ts, tt = ptype.edges[h[e]]
    s, _, t = patch.edges[e]
    return frozenset({s} if ts == CONTEXT else {t} if tt == CONTEXT else ())
