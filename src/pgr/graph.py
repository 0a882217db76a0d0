"""Directed edge-labeled multigraphs and the operations the engine is built on.

Vertices and edges are opaque non-negative integers living in separate
namespaces within one graph.  Every edge carries a source, a target and a
label; parallel edges and loops are allowed.  A graph handed out is never
changed, so it can be shared freely: the engine edits only drafts of its own.

An edge is stored as a ``(src, label, tgt)`` triple, matching the arrow
reading ``src -label-> tgt`` used by the text format.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Iterable, Mapping

from .exceptions import DomainGap, EdgeIdClash, InvalidPatch, NotASubgraph

# Reserved label for edges the input notation leaves unlabeled.
UNLABELED = "_"

EdgeTriple = tuple[int, str, int]


class Graph:
    """A finite directed multigraph with labeled edges.  ``Graph(...)`` checks
    its input, derived graphs do not; each builds its own index on first use,
    and ``normalize`` edits a draft copy of its host (``_replace``)."""

    __slots__ = ("_vertices", "_edges", "_hash", "_index", "_labelling", "_max", "_ids",
                 "_matchers")

    def __init__(self, vertices: Iterable[int] = (), edges=()):
        """Create a graph; ``edges`` is a mapping ``{edge_id: (src, label,
        tgt)}`` or an iterable of ``(edge_id, src, label, tgt)`` tuples."""
        vertices, edge_map = frozenset(vertices), {}
        pairs = edges.items() if isinstance(edges, Mapping) else (
            (eid, (s, lab, t)) for eid, s, lab, t in edges)
        for eid, (s, lab, t) in pairs:
            if (eid := int(eid)) in edge_map:
                raise ValueError(f"duplicate edge id {eid}")
            edge_map[eid] = (s, lab, t)
        for eid, (s, lab, t) in edge_map.items():
            if s not in vertices or t not in vertices:
                raise ValueError(f"edge {eid}: endpoint outside the vertex set")
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"edge {eid}: label must be a nonempty string")
        self._set(vertices, edge_map)

    def _set(self, vertices: frozenset[int], edges: dict[int, EdgeTriple]) -> "Graph":
        self._vertices, self._edges = vertices, edges
        self._hash = self._index = self._labelling = self._max = self._ids = None
        self._matchers = None  # see ``matching._embeddings``
        return self

    @classmethod
    def _trusted(cls, vertices: frozenset[int], edges: dict[int, EdgeTriple]) -> "Graph":
        """A graph from parts known to be valid; it owns ``edges``."""
        return cls.__new__(cls)._set(vertices, edges)

    def _draft(self) -> "Graph":
        """A copy, with the largest id, that ``normalize`` edits in place: a
        mutable vertex set and an id stack (``max_id``) until ``_handout``."""
        g = Graph._trusted(set(self._vertices), dict(self._edges))
        g._max = self.max_id()
        g._ids = sorted(itertools.chain(g._vertices, g._edges))
        return g

    def _handout(self) -> "Graph":
        """This draft, done editing: its vertex set frozen, its id stack gone."""
        self._vertices, self._ids = frozenset(self._vertices), None
        return self

    def _replace(self, d: "PatchDecomposition", match_vertices: Iterable[int],
                 added: dict[int, EdgeTriple]) -> None:
        """Edit this draft of ``d``'s host into the step's result: J and M
        leave, the new match's vertices and ``added`` (new patch, then match
        edges) join, and a built index becomes that of a fresh build.  New
        ids lie above every id of the draft, so appending keeps id order."""
        mv, new_v = d._mv, frozenset(match_vertices)
        removed = [(e, self._edges.pop(e)) for e in itertools.chain(d._je, d._me)]
        self._edges.update(added)
        self._vertices -= mv
        self._vertices |= new_v
        if self._index is not None:
            out, inc, _, counts = self._index
            for v in mv:
                del out[v], inc[v], counts[v]
            for v in new_v:
                out[v], inc[v], counts[v] = [], [], {}
            _remove_edges(self._index, removed)
            _add_edges(self._index, sorted(added.items()))
        self._ids += sorted(itertools.chain(new_v, added))
        top = max(itertools.chain(new_v, added), default=self._max)
        self._max = top if top in self._vertices or top in self._edges else None
        self._hash = self._labelling = None

    @classmethod
    def from_triples(cls, vertices: Iterable[int], triples: Iterable[EdgeTriple] = ()) -> "Graph":
        """Build a graph assigning edge ids 0, 1, ... in the given order."""
        return cls(vertices, [(i, s, lab, t) for i, (s, lab, t) in enumerate(triples)])

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edges(self) -> dict[int, EdgeTriple]:
        """Edge id -> (src, label, tgt).  Treat as read-only."""
        return self._edges

    def src(self, e: int) -> int:
        return self._edges[e][0]

    def label(self, e: int) -> str:
        return self._edges[e][1]

    def tgt(self, e: int) -> int:
        return self._edges[e][2]

    def sorted_edges(self) -> list[tuple[int, EdgeTriple]]:
        return sorted(self._edges.items())

    def _indexes(self):
        """Out- and in-edges per vertex and edges per label, in id order, and
        ``edge_counts`` per vertex; built on first use and stored once filled."""
        if self._index is None:
            vs = self._vertices
            index = {v: [] for v in vs}, {v: [] for v in vs}, {}, {v: {} for v in vs}
            _add_edges(index, sorted(self._edges.items()))
            self._index = index
        return self._index

    def out_edges(self, v: int) -> list[int]:
        return self._indexes()[0][v]

    def in_edges(self, v: int) -> list[int]:
        return self._indexes()[1][v]

    def label_index(self) -> dict[str, list[int]]:
        """Edge ids by label, in id order."""
        return self._indexes()[2]

    def edge_counts(self, v: int) -> dict[tuple, int]:
        """The edges at ``v`` by side and label: ``("out", lab)`` counts its
        out-edges, ``("in", lab)`` its in-edges and ``("loop", lab)`` its
        loops (a loop is on all three sides); label None counts the whole
        side.  A key that counts 0 is left out.  Treat as read-only."""
        return self._indexes()[3][v]

    def incident_edges(self, v: int) -> set[int]:
        return set(self.out_edges(v)) | set(self.in_edges(v))

    def labels(self) -> set[str]:
        return {lab for _, lab, _ in self._edges.values()}

    def max_id(self) -> int:
        """Largest id in use (vertex or edge), or -1 for the empty graph."""
        if self._max is None:
            ids, vs, es = self._ids, self._vertices, self._edges
            while ids and ids[-1] not in vs and ids[-1] not in es:
                ids.pop()  # a draft's stack drops the ids it no longer uses
            self._max = ids[-1] if ids else max(itertools.chain(vs, es, [-1]))
        return self._max

    def is_empty(self) -> bool:
        return not self._vertices and not self._edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._vertices, frozenset(self._edges.items())))
        return self._hash

    def __repr__(self):
        es = ", ".join(f"{e}:{s}-{lab}->{t}" for e, (s, lab, t) in self.sorted_edges())
        return f"Graph(V={sorted(self._vertices)}, E=[{es}])"


EMPTY_GRAPH = Graph()


def _add_edges(index, edges: list[tuple[int, EdgeTriple]]) -> None:
    """Append ``edges``, in id order and above its ids, to an index holding their ends."""
    out, inc, by_label, counts = index
    for e, (s, lab, t) in edges:
        out[s].append(e)
        inc[t].append(e)
        by_label.setdefault(lab, []).append(e)
        (o, o_lab), (i, i_lab), (lp, lp_lab) = _count_keys(lab)
        c = counts[s]
        c[o], c[o_lab] = c.get(o, 0) + 1, c.get(o_lab, 0) + 1
        c = counts[t]
        c[i], c[i_lab] = c.get(i, 0) + 1, c.get(i_lab, 0) + 1
        if s == t:
            c[lp], c[lp_lab] = c.get(lp, 0) + 1, c.get(lp_lab, 0) + 1


def _remove_edges(index, edges: list[tuple[int, EdgeTriple]]) -> None:
    """Delete ``edges`` from an index, at their ends in it; a label or key left at 0 goes."""
    out, inc, by_label, counts = index
    for e, (s, lab, t) in edges:
        es = by_label[lab]
        del es[bisect_left(es, e)]
        if not es:
            del by_label[lab]
        o, i, lp = _count_keys(lab)
        for es, v, keys in ((out.get(s), s, o), (inc.get(t), t, i + lp if s == t else i)):
            if es is not None:
                del es[bisect_left(es, e)]
                c = counts[v]
                for key in keys:
                    if n := c[key] - 1:
                        c[key] = n
                    else:
                        del c[key]


@functools.lru_cache(maxsize=1024)
def _count_keys(label: str) -> tuple:
    """Per side, the ``edge_counts`` keys of an edge with ``label``; shared."""
    return tuple(((side, None), (side, label)) for side in ("out", "in", "loop"))


class Renaming:
    """A pair of injective id maps for vertices and edges.

    Applied to a graph whose ids it covers, a renaming yields an isomorphic
    copy.  The same object doubles as an embedding witness: the maps may be
    defined on more ids than any particular graph uses.
    """

    __slots__ = ("vmap", "emap")

    def __init__(self, vmap: Mapping[int, int] = (), emap: Mapping[int, int] = ()):
        self.vmap, self.emap = dict(vmap), dict(emap)
        if len(set(self.vmap.values())) != len(self.vmap):
            raise ValueError("vertex map is not injective")
        if len(set(self.emap.values())) != len(self.emap):
            raise ValueError("edge map is not injective")

    @classmethod
    def _trusted(cls, vmap: dict[int, int], emap: dict[int, int]) -> "Renaming":
        """A renaming of maps known to be injective; it owns them."""
        r = cls.__new__(cls)
        r.vmap, r.emap = vmap, emap
        return r

    @classmethod
    def identity(cls, g: Graph) -> "Renaming":
        return cls({v: v for v in g.vertices}, {e: e for e in g.edges})

    def inverse(self) -> "Renaming":
        return Renaming({w: v for v, w in self.vmap.items()},
                        {f: e for e, f in self.emap.items()})

    def image_vertices(self) -> frozenset[int]:
        return frozenset(self.vmap.values())

    def image_edges(self) -> frozenset[int]:
        return frozenset(self.emap.values())

    def __eq__(self, other):
        if not isinstance(other, Renaming):
            return NotImplemented
        return self.vmap == other.vmap and self.emap == other.emap

    def __repr__(self):
        return f"Renaming(vmap={self.vmap}, emap={self.emap})"


class PatchDecomposition:
    """A host split into context C, match M and the patch J between them: the
    host and the ids of a valid match and its patch, which each decomposition the
    engine builds lists in id order, as ``patch_edges`` does.  Each of C, J and M
    is derived on first use; ``decompose_at`` checks the match, and C refuses an
    edge that touches it (a patch id missing), so each is a graph."""

    def __init__(self, host: Graph, match_vertices: frozenset[int], match_edges: frozenset[int],
                 patch_edges: list[int]):
        self._host, self._mv, self._me, self._je = host, match_vertices, match_edges, patch_edges

    @functools.cached_property
    def context(self) -> Graph:
        skip, mv = self._me.union(self._je), self._mv
        edges = {e: triple for e, triple in self._host.edges.items() if e not in skip}
        if touching := [e for e, (s, _, t) in edges.items() if s in mv or t in mv]:
            raise InvalidPatch([f"patch misses edges that touch the match: {sorted(touching)}"])
        return Graph._trusted(frozenset(self._host.vertices) - mv, edges)

    @functools.cached_property
    def patch(self) -> Graph:
        j = {e: self._host.edges[e] for e in self._je}
        return Graph._trusted(frozenset(x for s, _, t in j.values() for x in (s, t)), j)

    @functools.cached_property
    def match(self) -> Graph:
        return Graph._trusted(self._mv, {e: self._host.edges[e] for e in self._me})

    def __eq__(self, other):
        if not isinstance(other, PatchDecomposition):
            return NotImplemented
        return (self.context, self.patch, self.match) == (other.context, other.patch, other.match)

    def __repr__(self):
        return f"PatchDecomposition(C={self.context!r}, J={self.patch!r}, M={self.match!r})"


def graph_union(g: Graph, h: Graph) -> Graph:
    """Componentwise union of two graphs with disjoint edge sets: shared
    vertices fuse; shared edge ids are an error even when they agree."""
    if clash := g.edges.keys() & h.edges.keys():
        raise EdgeIdClash(f"edge ids present in both operands: {sorted(clash)}")
    return Graph(g.vertices | h.vertices, {**g.edges, **h.edges})


def rename_graph(g: Graph, phi: Renaming) -> Graph:
    """Transport ``g`` along ``phi``; labels are unchanged."""
    if missing_v := g.vertices - phi.vmap.keys():
        raise DomainGap(f"vertices without image: {sorted(missing_v)}")
    if missing_e := g.edges.keys() - phi.emap.keys():
        raise DomainGap(f"edges without image: {sorted(missing_e)}")
    return Graph._trusted(
        frozenset(phi.vmap[v] for v in g.vertices),
        {phi.emap[e]: (phi.vmap[s], lab, phi.vmap[t]) for e, (s, lab, t) in g.edges.items()},
    )


def is_simple(g: Graph) -> bool:
    """True iff no two distinct edges agree on source, target and label."""
    return len(set(g.edges.values())) == len(g.edges)


def validate_patch(c: Graph, j: Graph, m: Graph) -> list[str]:
    """Check that C, J and M form a decomposition; one message per violation."""
    cv, mv, ce, me, je = c.vertices, m.vertices, c.edges.keys(), m.edges.keys(), j.edges.keys()
    ends, stray = set(), []
    for e, (s, _, t) in j.edges.items():
        ends.update((s, t))
        if not ((t in mv or t in cv) if s in mv else (s in cv and t in mv)):
            stray.append(e)
    out = []
    if not cv.isdisjoint(mv):
        out.append(f"context and match share vertices: {sorted(cv & mv)}")
    if not ce.isdisjoint(me):
        out.append(f"context and match share edges: {sorted(ce & me)}")
    if not (je.isdisjoint(ce) and je.isdisjoint(me)):
        out.append(f"patch edges reuse context/match edge ids: {sorted(je & (ce | me))}")
    out += [f"patch edge {e} does not run between context and match or within the match"
            for e in sorted(stray)]
    if not j.vertices <= ends:
        out.append(f"patch has isolated vertices: {sorted(j.vertices - ends)}")
    if not ends <= j.vertices:
        out.append(f"patch endpoints missing from its vertex set: {sorted(ends - j.vertices)}")
    return out


def patch_compose(c: Graph, j: Graph, m: Graph) -> Graph:
    """Reassemble valid C, J and M into one graph, preserving all ids.  The
    result is trusted: the parts are graphs and have just been validated."""
    if violations := validate_patch(c, j, m):
        raise InvalidPatch(violations)
    return Graph._trusted(c.vertices | j.vertices | m.vertices, {**c.edges, **j.edges, **m.edges})


def patch_edges(g: Graph, match_vertices: frozenset[int], match_edges: frozenset[int]) -> list[int]:
    """The patch around a match, in id order: every edge outside the match
    that touches a match vertex, read off the incidence lists."""
    out, inc = g._indexes()[:2]
    return sorted({e for v in match_vertices for es in (out[v], inc[v]) for e in es
                   if e not in match_edges})


def decompose_at(g: Graph, match_vertices: Iterable[int], match_edges: Iterable[int]) -> PatchDecomposition:
    """Split ``g`` around the subgraph selected by the given vertex/edge sets.

    The match is checked at once; the patch is every edge outside it that
    touches a match vertex, and the context keeps all the rest.  C, J and M
    are derived on first use.  ``patch_compose`` of C, J and M inverts this.
    """
    mv, me = frozenset(match_vertices), frozenset(match_edges)
    if not mv <= g.vertices:
        raise NotASubgraph(f"match vertices outside the graph: {sorted(mv - g.vertices)}")
    if not me <= g.edges.keys():
        raise NotASubgraph(f"match edges outside the graph: {sorted(me - g.edges.keys())}")
    for e in me:
        if not mv.issuperset(g.edges[e][::2]):
            raise NotASubgraph(f"match edge {e} has an endpoint outside the match vertices")
    return PatchDecomposition(g, mv, me, patch_edges(g, mv, me))


# -- canonical labelling ----------------------------------------------------
#
# One engine serves canonical forms and isomorphism: individualization-
# refinement with automorphism pruning and twin cells split without branching
# (McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic Computation
# 2014).  Vertices are indexed 0..n-1.  An ordered partition is four lists:
# ``lab`` holds the vertices in cell order, ``pos`` is its inverse, ``cell``
# maps a vertex to the start of its cell and ``end`` maps a cell start to one
# past the cell's last position.  The root is refined in rounds of one sort
# (Berkholz, Bonsma & Grohe, ESA 2013) and, once a round fails to halve
# n - cells, by the splitter queue ``_refine``, which refines every later node.


def _refine(adj, lab, pos, cell, end, splitters) -> int:
    """Split cells in place until the partition is equitable or discrete; return the cell count.

    Splitting by a cell W gives each vertex the multiset of keys of its
    edges to W (label and direction, loops apart; multiplicity counts).
    The fragments of a split cell are ordered by that multiset, so the
    result depends only on invariant data.  ``splitters`` are the starts of
    the cells not yet split by; a split cell that is not pending queues all
    fragments but its first largest one, which the others determine.
    """
    queue, pending = deque(splitters), set(splitters)
    n, cells = len(lab), len(set(cell))
    while queue and cells < n:
        w = queue.popleft()
        pending.discard(w)
        keys = defaultdict(list)
        for x in lab[w:end[w]]:
            for k, y in adj[x]:
                keys[y].append(k)
        by_cell = defaultdict(list)
        for y in keys:
            c = cell[y]
            if end[c] - c > 1:  # a singleton cell cannot split
                by_cell[c].append(y)
        for c in sorted(by_cell):
            e = end[c]
            ys = sorted((sorted(keys[y]), y) for y in by_cell[c])
            if len(ys) == e - c and ys[0][0] == ys[-1][0]:
                continue
            # Untouched vertices stay at the head of the cell; touched ones
            # fill its tail in signature order.
            t = e - len(ys)
            holes = [pos[y] for _, y in ys if pos[y] < t]
            for p, v in zip(holes, [v for v in lab[t:e] if v not in keys]):
                lab[p] = v
                pos[v] = p
            starts = [c] if t > c else []
            for i, (sig, y) in enumerate(ys, t):
                if i == t or sig != ys[i - t - 1][0]:
                    starts.append(i)
                lab[i] = y
                pos[y] = i
                cell[y] = starts[-1]
            for s, b in zip(starts, starts[1:] + [e]):
                end[s] = b
            cells += len(starts) - 1
            largest = c if c in pending else max(starts, key=lambda s: end[s] - s)
            fresh = [s for s in starts if s != largest]
            pending.update(fresh)
            queue.extend(fresh)
    return cells


def _colour_rounds(adj) -> tuple[tuple, int]:
    """The root partition, ordered by invariant data, and its cell count."""
    n, cell, cells = len(adj), [0] * len(adj), min(len(adj), 1)
    while True:
        keys = [(cell[x], sorted([k * n + cell[y] for k, y in adj[x]])) for x in range(n)]
        lab = sorted(range(n), key=keys.__getitem__)
        pos, cell, end, was = [0] * n, [0] * n, [n] * n, cells
        for i, x in enumerate(lab):
            c = cell[lab[i - 1]] if i and keys[x] == keys[lab[i - 1]] else i
            pos[x], cell[x], end[c] = i, c, i + 1
        if (cells := len(set(cell))) in (n, was):  # discrete, or stable: equitable
            return (lab, pos, cell, end), cells
        if 2 * (n - cells) > n - was:  # no split by the largest: the old cells and the rest imply it
            big = max(set(cell), key=lambda s: (end[s] - s, -s))
            return (lab, pos, cell, end), _refine(adj, lab, pos, cell, end, sorted(set(cell) - {big}))


def _twins(adj, cell, end) -> dict[int, int]:
    """Each vertex with a twin, mapped to the smallest of its class.  Twins
    share a cell and sorted adjacency entries (a loop's end read as -1), so
    they are never adjacent and any permutation of a class is an automorphism."""
    classes = defaultdict(list)
    for x, c in enumerate(cell):
        if end[c] - c > 1:
            classes[c, tuple(sorted((k, -1 if y == x else y) for k, y in adj[x]))].append(x)
    return {x: xs[0] for xs in classes.values() if len(xs) > 1 for x in xs}


def _target_cell(lab, cell, end, n, twin) -> int | None:
    """Start of the first smallest non-singleton cell, or None if discrete.

    A cell of one twin class is split into singletons on the way, in place
    and in ``lab`` order.  Its orders are all an automorphism apart, so it
    needs no branching.  Each other vertex has the same edges to each twin,
    and twins have none among themselves, so no refinement is needed."""
    starts, c = [], 0
    while c < n:
        e = end[c]
        if e - c > 1:
            if twin and len({twin.get(x, ~x) for x in lab[c:e]}) == 1:
                for i in range(c, e):
                    cell[lab[i]], end[i] = i, i + 1
            else:
                starts.append(c)
        c = e
    return min(starts, key=lambda c: end[c] - c, default=None)


def _canonical_labelling(g: Graph) -> tuple[list[int], list[EdgeTriple], dict[int, int] | None,
                                             list[dict[int, int]]]:
    """A vertex order of ``g``, its certificate, its twins (``_twins`` in
    ``g``'s ids, or None) and the automorphisms the search found, each in
    ``g``'s ids and holding only the vertices it moves (none if the root is
    discrete).  The certificate is the edges as sorted ``(pos(src), label,
    pos(tgt))`` triples, the smallest over the leaves of the search tree, so
    isomorphic graphs share it."""
    verts = sorted(g.vertices)
    n, index = len(verts), {v: i for i, v in enumerate(verts)}
    label_key = {label: 3 * i for i, label in enumerate(sorted(g.labels()))}
    edges = [(index[s], label, index[t]) for s, label, t in g.edges.values()]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, label, t in edges:
        k = label_key[label]
        if s == t:
            adj[s].append((k + 2, s))
        else:
            adj[s].append((k, t))
            adj[t].append((k + 1, s))
    (lab, pos, cell, end), cells = _colour_rounds(adj)
    if cells == n:  # a discrete root: the automorphism group is trivial
        return [verts[i] for i in lab], sorted([(pos[s], lb, pos[t]) for s, lb, t in edges]), None, []
    node, twin = (lab, pos, cell, end), _twins(adj, cell, end)
    orbit, autos = list(range(n)), []  # union-find over the automorphisms found so far; the list

    def find(x):
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    on_first, first, best = True, None, None
    # A frame: a node's partition, its target cell, the cell's untried and
    # tried vertices, and whether the node lies on the path to the first leaf.
    stack = []
    while node is not None or stack:
        if node is not None:
            lab, pos, cell, end = node
            node, c = None, _target_cell(lab, cell, end, n, twin)
            if c is not None:
                stack.append(((lab, pos, cell, end), c, lab[c:end[c]][::-1], [], on_first))
                continue
            cert = sorted([(pos[s], label, pos[t]) for s, label, t in edges])
            if first is None:
                first = best = (cert, lab)
            elif cert == first[0]:
                # Equal leaves give an automorphism; the rest of this subtree
                # repeats what its first-path sibling already explored.
                autos.append({verts[a]: verts[b] for a, b in zip(first[1], lab) if a != b})
                for a, b in zip(first[1], lab):
                    orbit[find(a)] = find(b)
                while not stack[-1][4]:
                    stack.pop()
            elif cert < best[0]:
                best = (cert, lab)
            continue
        (lab, pos, cell, end), c, untried, tried, on_path = stack[-1]
        # On the first path the automorphisms found so far fix the prefix,
        # so one vertex per orbit of the target cell suffices.
        roots = {find(x) for x in tried} if on_path else ()
        while untried and find(untried[-1]) in roots:
            untried.pop()
        if not untried:
            stack.pop()
            continue
        v = untried.pop()
        on_first = on_path and not tried
        tried.append(v)
        lab, pos, cell, end = node = lab[:], pos[:], cell[:], end[:]
        p, e = pos[v], end[c]
        lab[p], lab[c] = lab[c], v
        pos[lab[p]], pos[v] = p, c
        end[c], end[c + 1] = c + 1, e
        for u in lab[c + 1:e]:
            cell[u] = c + 1
        _refine(adj, *node, [c])
    twins = {verts[x]: verts[r] for x, r in twin.items()} or None
    return [verts[i] for i in best[1]], best[0], twins, autos


def _labelling(g: Graph) -> tuple[list[int], Graph, dict[int, int] | None, list[dict[int, int]]]:
    """``g``'s canonical order, canonical form, twin classes and the
    automorphisms its search found, searched once per graph."""
    if g._labelling is None:
        order, cert, twins, autos = _canonical_labelling(g)
        form = Graph._trusted(frozenset(range(len(order))), dict(enumerate(cert)))
        g._labelling = order, form, twins, autos
    return g._labelling


def canonical_form(g: Graph) -> Graph:
    """Deterministic representative of ``g``'s isomorphism class.

    ``canonical_form(g) == canonical_form(h)`` holds exactly when the two
    graphs are isomorphic; vertices are renumbered ``0..n-1`` and edges
    ``0..m-1``.  The vertex order is the smallest leaf of an
    individualization-refinement search pruned by automorphisms; it and
    the form are cached on ``g``.
    """
    return _labelling(g)[1]


def canonical_renaming(g: Graph) -> Renaming:
    """The renaming that carries ``g`` onto ``canonical_form(g)``."""
    vmap = {v: i for i, v in enumerate(_labelling(g)[0])}
    ranked = sorted(g.edges, key=lambda e: (vmap[g.src(e)], g.label(e), vmap[g.tgt(e)], e))
    return Renaming(vmap, {e: i for i, e in enumerate(ranked)})


# -- isomorphism ------------------------------------------------------------


def find_isomorphism(g: Graph, h: Graph) -> Renaming | None:
    """Return a renaming with ``rename_graph(g, phi) == h``, or None.

    The graphs are isomorphic exactly when they have the same canonical
    form, that is, as many vertices and the same certificate; the witness is
    ``canonical_renaming(g)`` followed by the inverse of
    ``canonical_renaming(h)``.
    """
    if (len(g.vertices), len(g.edges)) != (len(h.vertices), len(h.edges)) \
            or canonical_form(g) != canonical_form(h):
        return None
    to_canon, back = canonical_renaming(g), canonical_renaming(h).inverse()
    return Renaming({v: back.vmap[i] for v, i in to_canon.vmap.items()},
                    {e: back.emap[i] for e, i in to_canon.emap.items()})


def isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
