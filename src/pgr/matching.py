"""Locating rule matches inside a host graph.

A redex is a located match: an injective embedding of the left pattern, the
induced context/patch/match decomposition of the host, and one adherence map
assigning every patch edge to a left type edge.  A host contains a redex for
a rule exactly when some subgraph is isomorphic to the left pattern and every
edge incident to it (but outside it) adheres to some left type edge.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from operator import countOf, eq, ge, itemgetter
from typing import NamedTuple

from .graph import Graph, PatchDecomposition, Renaming, _labelling, patch_edges
from .rules import (CONTEXT, PatchType, QuasiRule, adherence_maps, default_map_cap,
                    match_positions)

_NESTED = 16  # loops per generated function; CPython allows 20 nested blocks


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
    """What a search needs of a pattern and its left type, if any; kept per
    scheme (``PatchType._matcher``), else per pattern (``Graph._matchers``).
    ``needs[v]``: ``(key, n, op)``, v's image has ``op`` (eq, ge) n edges
    counted by ``Graph.edge_counts`` under key: at least the pattern's per side
    and label, and with a type exactly the pattern's, 0 included, on each side
    (or the loops) that no type edge opens at v; ``options[v]``: (label, side)
    pairs to root v; ``admits(counts)``: the vertices whose needs those meet."""

    def __init__(self, pattern: Graph, ptype: PatchType | None):
        self.pattern, self.vertices = pattern, sorted(pattern.vertices)
        self.groups = sorted(Counter(pattern.edges.values()).items())  # per triple
        self.sizes = [n for _, n in self.groups]
        self.edges = sorted(pattern.edges, key=lambda e: (pattern.edges[e], e))  # in that order
        shapes = ptype.by_shape() if ptype is not None else {}
        opened = {x for s, t in shapes for x in [("out", s), ("in", t)] + [("loop", s)] * (s == t)}
        self.needs, self.options, self.plans, self.labels = {}, {}, {}, pattern.labels()
        fails, bound = {}, {}
        c = lambda x: bound.setdefault(x, f"C{len(bound)}")  # noqa: E731
        for v in self.vertices:
            counts = pattern.edge_counts(v)
            self.needs[v] = [((side, None), counts.get((side, None), 0), eq) for side in (
                "out", "in", "loop") if ptype is not None and (side, v) not in opened]
            self.needs[v] += [(k, n, ge) for k, n in counts.items() if k[1] is not None]
            self.options[v] = tuple((lab, side) for (side, lab), _, _ in self.needs[v] if lab)
            fails[v] = [f"c.get({c(key)}, 0) {'!=' if op is eq else '<'} {n}"
                        for key, n, op in self.needs[v]]  # true if the need fails
        tests = "".join(f"({c(v)}, {' or '.join(fails[v]) or 0}), " for v in self.vertices)
        body = f" return lambda c: [v for v, bad in ({tests}) if not bad]"
        self.admits = _made(len(bound), body)(tuple(bound))

    def plan(self, root: int):
        """``search(host, first, used)``, compiled on first use, lists each
        injective vertex map rooted in ``first`` that meets the needs and
        multiplicities and avoids ``used``: the map, in breadth-first order from
        ``root``, and the host edges per triple of ``groups``.  Each vertex is a
        nested ``for`` over ``first``, ``_scan`` or a neighbour's triples, tested
        inline; labels, keys and ids come only as a bound tuple.  A function nests
        20 blocks at most: each ``_NESTED`` vertices yield partial maps to a stack."""
        if root in self.plans:
            return self.plans[root]
        pattern, order, via, reached, bound = self.pattern, [], {}, set(), {}
        for queue in ([r] for r in (root, *self.vertices) if r not in via):
            via[queue[0]] = None
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
        c = lambda x: bound.setdefault(x, f"C{len(bound)}")  # noqa: E731
        chunks = [order[i:i + _NESTED] for i in range(0, len(order), _NESTED)]
        call, multi = "(P, first, used, host, out, inc, counts, E, found)", len(chunks) > 1
        code = [" def search(host, first, used):", "  out, inc, _, counts = host._indexes()",
                "  E, found = host.edges.__getitem__, []"] + [
            f"  step, P = ({''.join(f's{k}, ' for k in range(len(chunks)))}), {{}}",
            f"  stack = [s0{call}]\n  while stack:\n   P = next(stack[-1], None)",
            f"   if P is None: stack.pop()\n   elif len(stack) + 1 < len(step):",
            f"    stack.append(step[len(stack)]{call})\n   else: step[-1]{call}\n  return found",
        ] * multi
        for k, chunk in enumerate(chunks):
            w = {x: f"w{i}" if x in chunk else f"P[{c(x)}]" for i, x in enumerate(order)}
            code += [f" def s{k}{call}:"] * multi
            for i, v in enumerate(chunk):
                pad, test = " " * (i + 2), [f"{w[v]} == {w[x]}" for x in chunk[:i]]
                if via[v] is None:
                    it = "first" if v == root else f"scan(host, {c(self.options[v])})"
                    code.append(f"{pad}for {w[v]} in {it}:")
                else:
                    u, lab, out = via[v]
                    code.append(f"{pad}for {f'_, l, {w[v]}' if out else f'{w[v]}, l, _'} in "
                                f"fromkeys(map(E, {'out' if out else 'inc'}[{w[u]}])):")
                    test.insert(0, f"l != {c(lab)}")
                fails = [f"c.get({c(key)}, 0) {'!=' if op is eq else '<'} {n}"
                         for key, n, op in self.needs[v]] + [
                    f"countOf(map(E, out[{w[s]}]), ({w[s]}, {c(lab)}, {w[t]})) < {n}"
                    for s, lab, t, n in checks[v]]
                code += [f"{pad} if {' or '.join(test + [w[v] + ' in used'])}: continue",
                         f"{pad} c = counts[{w[v]}]\n{pad} if {' or '.join(fails) or 0}: continue"]
            pad, own = " " * (len(chunk) + 2), "".join(f"{w[v]}, " for v in chunk)
            images = "{" + "**P, " * (k > 0) + ", ".join(f"{c(v)}: {w[v]}" for v in chunk) + "}"
            if k + 1 < len(chunks):  # a partial map, its images kept out of the next chunks
                code += [f"{pad}used.update(({own}))", f"{pad}yield {images}",
                         f"{pad}used.difference_update(({own}))"]
        code += [f"{pad}G = ({'[], ' * len(self.groups)})"] + [  # each group's host edges
            f"{pad}tr = ({w[s]}, {c(lab)}, {w[t]})\n{pad}for e in out[{w[s]}]:\n{pad} if E(e) == "
            f"tr: G[{g}].append(e)" for g, ((s, lab, t), _) in enumerate(self.groups)]
        code.append(f"{pad}found.append(({images}, G))")
        body = "\n".join(code + ["  return found"] * (not multi) + [" return search"])
        return self.plans.setdefault(root, _made(len(bound), body)(tuple(bound)))


@functools.lru_cache(maxsize=256)
def _made(n: int, body: str):
    """``make(C)`` of ``body``, reading ``C`` as ``C0``, ..., ``C<n-1>``: one per text."""
    namespace = {"fromkeys": dict.fromkeys, "countOf": countOf, "scan": _scan}
    source = f"def make(C):\n {''.join(f'C{i}, ' for i in range(n))}= C\n{body}"
    exec(compile(source, "<search plan>", "exec"), namespace)
    return namespace["make"]


def _scan(host: Graph, options: tuple):
    """A component root's candidates: the ends of the rarest label's edges on its side."""
    index = host.label_index()
    _, lab, side = min([(len(index[lab]), lab, side) for lab, side in options] or [(0,) * 3])
    return (sorted(host.vertices) if not options else dict.fromkeys(
        host.edges[e][0 if side == "out" else 2] for e in index[lab]))


def find_pattern_embeddings(host: Graph, pattern: Graph, ptype: PatchType | None = None,
                            anchors: Set[int] | None = None) -> list[Renaming]:
    """All vertex- and edge-injective embeddings of ``pattern`` into ``host``.

    With ``ptype``, a rule's left patch type, the needs (``_Matcher``) leave
    out embeddings that cannot adhere.  The search starts at the rarest label
    and follows edges.  With ``anchors``, only embeddings that meet them are
    listed, each once: an anchor roots a search at each pattern vertex whose
    needs it meets, and tried anchors stay out of the image.  The empty
    pattern has one (empty) embedding, meeting no anchor; a label missing from
    the host gives ``[]`` at once.  Results come in a canonical order: by sorted
    image vertices, sorted image edges, then the maps; ``ptype`` and ``anchors``
    only remove entries."""
    return [r for _, r in _embeddings(host, pattern, ptype, anchors)]


def _embeddings(host: Graph, pattern: Graph, ptype: PatchType | None,
                anchors: Set[int] | None, first: bool = False) -> list[tuple[tuple, Renaming]]:
    """``find_pattern_embeddings``, each paired with its ``_embedding_key``."""
    if not pattern.vertices:
        return [(_embedding_key(Renaming()), Renaming())] if anchors is None else []
    if ptype is not None and (ptype.pattern is pattern or ptype.pattern == pattern):
        m = ptype._matcher = ptype._matcher or _Matcher(pattern, ptype)
    else:  # kept on the pattern, per the endpoint pairs of the type's edges
        shapes = None if ptype is None else frozenset(ptype.by_shape())
        pattern._matchers = cache = pattern._matchers or {}
        m = cache.get(shapes) or cache.setdefault(shapes, _Matcher(pattern, ptype))
    _, _, index, counts = host._indexes()
    if not m.labels <= index.keys():
        return []
    if anchors is None:
        root = min(m.vertices, key=lambda v: (min(
            (len(index[lab]) for lab, _ in m.options[v]), default=len(host.edges) + 1), v))
        vmaps = m.plan(root)(host, _scan(host, m.options[root]), set())
    else:
        vmaps, tried = [], set()
        for a in sorted(anchors & host.vertices):
            for p in m.admits(counts[a]):
                vmaps += m.plan(p)(host, (a,), tried)
            tried.add(a)
    # Per vertex map, each group of pattern edges onto its host edges (``first``: only the first n).
    pick = (lambda es, n: (es[:n],)) if first else itertools.permutations
    results = [Renaming._trusted(dict(vm), dict(zip(m.edges, itertools.chain(*choice))))
               for vm, lists in vmaps for choice in itertools.product(*map(pick, lists, m.sizes))]
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


def _orbit_redexes(host: Graph, rule: QuasiRule, cap: int) -> list[Redex]:
    """Deterministic ``rule``'s redexes: its vertex maps keyed by twin class, joined under the
    host's automorphisms (labelled if two maps are listed), and each orbit's first key read."""
    embs, first = _embeddings(host, rule.lhs.pattern, rule.lhs.ptype, None, True), {}
    twins, autos = _labelling(host)[2:] if len(embs) > 1 else (None, ())
    twins, filed, kept, reached = twins or {}, {}, [], set()
    for key, emb in embs:
        first.setdefault(frozenset((v, twins.get(w, w)) for v, w in emb.vmap.items()), (key, emb))
    for s in autos:  # as a map of the class representatives it moves, filed under each
        m = {w: r for w, x in s.items() if (r := twins.get(x, x)) != w == twins.get(w, w)}
        for w in m:
            filed.setdefault(w, []).append(m)
    for key, y in first.items():  # the first key of each orbit, then the orbit
        if key not in reached:
            kept.append(y)
            reached.add(key)
            for k in (todo := [key] if filed else []):  # each key of the orbit, once
                images = {frozenset((v, m.get(w, w)) for v, w in k) for m in {
                    id(a): a for _, u in k for a in filed.get(u, ())}.values()} - reached
                reached |= images
                todo += images
    return [Redex(rule, x.embedding, PatchDecomposition(
        host, x.embedding.image_vertices(), x.embedding.image_edges(), list(x.maps[0])), x.maps[0])
            for y in kept if (x := _entry(host, rule, *y, cap)).maps]  # it adheres as its orbit does


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
    entries sorted by ``_embedding_key``, and ``_at`` files each one's key
    under its image vertices by the identity of its embedding, which a
    re-read keeps, so no key is hashed.  A rule is searched in full when
    first asked for; the next ask after ``advance`` drops the entries at the
    touched vertices, re-reads those at the carried ones, searches
    (``_redex_entries``) anchored at the touched ones still in the host, if
    any, and merges the new entries in by bisection.
    """

    def __init__(self, host: Graph, system: dict[str, QuasiRule]):
        self.host, self.system, self.cap = host, system, default_map_cap()  # read once
        self._entries: dict[str, list[_Entry]] = {}
        self._at: dict[str, dict[int, dict[int, tuple]]] = {}  # vertex -> id(embedding) -> key
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
            for i, key in {i: key for v in touched for i, key in at.pop(v, {}).items()}.items():
                x = entries.pop(bisect_left(entries, key, key=itemgetter(0)))
                self._capped[name] -= x.capped
                for v in x.embedding.vmap.values():
                    at.get(v, {}).pop(i, None)  # a touched vertex's bucket is gone
            for key in {i: key for v in carried for i, key in at.get(v, {}).items()}.values():
                i = bisect_left(entries, key, key=itemgetter(0))  # key, place and map count stay
                entries[i] = _entry(self.host, rule, key, entries[i].embedding, self.cap)
            if anchors := touched & self.host.vertices:
                found = _redex_entries(self.host, rule, self.cap, anchors)
            self._pending[name] = set(), set()
        for x in found:
            insort(entries, x, key=itemgetter(0))
            self._capped[name] += x.capped
            for v in x.embedding.vmap.values():
                at.setdefault(v, {})[id(x.embedding)] = x.key
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
