"""The canonical labelling against the engine it replaced, and the number of
labelling searches the public functions run.

``reference_refine``, ``reference_target_cell`` and ``reference_labelling``
are ``graph._refine``, ``graph._target_cell`` and
``graph._canonical_labelling`` as they were before singleton cells were
skipped during refinement and before the labelling was cached on the graph;
only their names changed.  The current engine refines its root in rounds,
which order the cells differently, so its certificates differ from the
reference's; it must give the same isomorphism classes, a certificate that
no renaming of ids changes, an order that carries the graph onto its
certificate, and the twins ``reference_twins`` finds, which must be
automorphic.
"""

import functools
import itertools
import math
import random
from collections import Counter, defaultdict, deque

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fixtures import PROPERTY, ds_states, hub_host
from pgr import graph, rewrite
from pgr.graph import (
    EdgeTriple,
    Graph,
    Renaming,
    canonical_form,
    canonical_renaming,
    find_isomorphism,
    rename_graph,
)
from pgr.rules import build_rule
from test_graph import disjoint_copies, graphs, perturbed, random_multigraph_pairs, shuffled
from test_systems import grammar_reachable


def reference_refine(adj, lab, pos, cell, end, splitters) -> None:
    """Split cells in place until the partition is equitable.

    Splitting by a cell W gives each vertex the multiset of keys of its
    edges to W (label and direction, loops apart; multiplicity counts).
    The fragments of a split cell are ordered by that multiset, so the
    result depends only on invariant data.  ``splitters`` are the starts of
    the cells not yet split by; a split cell that is not pending queues all
    fragments but its first largest one, which the others determine.
    """
    queue = deque(splitters)
    pending = set(splitters)
    while queue:
        w = queue.popleft()
        pending.discard(w)
        keys = defaultdict(list)
        for x in lab[w:end[w]]:
            for k, y in adj[x]:
                keys[y].append(k)
        by_cell = defaultdict(list)
        for y in keys:
            by_cell[cell[y]].append(y)
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
            largest = c if c in pending else max(starts, key=lambda s: end[s] - s)
            fresh = [s for s in starts if s != largest]
            pending.update(fresh)
            queue.extend(fresh)


def reference_target_cell(end, n) -> int | None:
    """Start of the first smallest non-singleton cell, or None if discrete."""
    starts, c = [], 0
    while c < n:
        if end[c] - c > 1:
            starts.append(c)
        c = end[c]
    return min(starts, key=lambda c: end[c] - c, default=None)


def reference_labelling(g: Graph) -> tuple[list[int], list[EdgeTriple]]:
    """A vertex order of ``g`` and its certificate: the edges as sorted
    ``(pos(src), label, pos(tgt))`` triples.  The certificate is the smallest
    over the leaves of the search tree, so isomorphic graphs share it."""
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
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
    orbit = list(range(n))  # union-find over the automorphisms found so far

    def find(x):
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    node = (list(range(n)), list(range(n)), [0] * n, [n] * n)
    reference_refine(adj, *node, [0] if n else [])
    on_first, first, best = True, None, None
    # A frame: a node's partition, its target cell, the cell's untried and
    # tried vertices, and whether the node lies on the path to the first leaf.
    stack = []
    while node is not None or stack:
        if node is not None:
            lab, pos, cell, end = node
            node, c = None, reference_target_cell(end, n)
            if c is not None:
                stack.append(((lab, pos, cell, end), c, lab[c:end[c]][::-1], [], on_first))
                continue
            cert = sorted([(pos[s], label, pos[t]) for s, label, t in edges])
            if first is None:
                first = best = (cert, lab)
            elif cert == first[0]:
                # Equal leaves give an automorphism; the rest of this subtree
                # repeats what its first-path sibling already explored.
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
        reference_refine(adj, *node, [c])
    return [verts[i] for i in best[1]], best[0]


def reference_cases():
    """The graphs of ``TestAgainstNetworkx``, every state the grammar walk
    keeps to depth 7, and a few large or highly symmetric graphs."""
    for g, h in random_multigraph_pairs():
        yield g
        yield h
    yield from grammar_reachable(7)
    yield hub_host()
    yield Graph(range(40))
    yield Graph.from_triples(range(60), [(i, "a", (i + 1) % 60) for i in range(60)])
    yield Graph.from_triples(range(50), [(i, "a", i + 1) for i in range(49)])


def classes(graphs, key):
    """The partition of ``graphs``' indexes by ``key``."""
    found = defaultdict(set)
    for i, g in enumerate(graphs):
        found[key(g)].add(i)
    return {frozenset(c) for c in found.values()}


def certificate(labelling):
    return lambda g: (len(g.vertices), tuple(labelling(g)[1]))


def test_labelling_matches_reference():
    # Class for class: the root rounds order the cells differently from the
    # reference's splitter queue, so the certificates themselves differ.
    cases = list(reference_cases())
    assert len(cases) == 480 + 66 + 4
    assert classes(cases, certificate(graph._canonical_labelling)) == \
        classes(cases, certificate(reference_labelling))


def test_root_cells_equal_the_references(monkeypatch):
    # The rounds and their hand-off end at the coarsest equitable partition:
    # the reference's root refinement, cell for cell, in another order.
    cases, roots, rounds = list(reference_cases()), [], graph._colour_rounds

    def kept(adj):
        node, cells = rounds(adj)
        roots.append((adj, list(node[2]), cells))
        return node, cells

    monkeypatch.setattr(graph, "_colour_rounds", kept)
    for g in cases:
        graph._canonical_labelling(g)
    assert len(roots) == 550
    for adj, cell, cells in roots:
        n = len(adj)
        node = list(range(n)), list(range(n)), [0] * n, [n] * n
        reference_refine(adj, *node, [0] if n else [])
        got, want = classes(range(n), cell.__getitem__), classes(range(n), node[2].__getitem__)
        assert got == want and cells == len(want)


def test_labelling_is_canonical():
    # Three renamings per case give the same certificate, and each order
    # carries its graph onto that certificate.
    rng = random.Random(26)
    for g in reference_cases():
        cert = graph._canonical_labelling(g)[1]
        for h in [g] + [shuffled(rng, g) for _ in range(3)]:
            order, got, *_ = graph._canonical_labelling(h)
            pos = {v: i for i, v in enumerate(order)}
            assert got == cert and len(pos) == len(h.vertices) == len(order), h
            assert sorted((pos[s], lab, pos[t]) for s, lab, t in h.edges.values()) == cert, h


def reference_twins(g):
    """Each vertex whose adjacency entries (label, side and far end, a loop's
    end read as -1) another vertex shares, mapped to the smallest of them, or
    None.  Such vertices are automorphic, so they share a cell of the
    coarsest equitable partition: this is the map ``_twins`` gave on the
    splitter queue's root partition before the rounds."""
    entries = {v: [] for v in g.vertices}
    for s, lab, t in g.edges.values():
        if s == t:
            entries[s].append((lab, "loop", -1))
        else:
            entries[s].append((lab, "out", t))
            entries[t].append((lab, "in", s))
    found = defaultdict(list)
    for v in sorted(g.vertices):
        found[tuple(sorted(entries[v]))].append(v)
    return {v: vs[0] for vs in found.values() if len(vs) > 1 for v in vs} or None


def test_twins_equal_the_reference():
    states = twin_cases()[0] + ds_states()
    assert len(states) == 66 + 689
    for g in states:
        assert graph._labelling(g)[2] == reference_twins(g), g


class Adjacency(list):
    """An adjacency list that counts its reads, and raises past ``limit``."""

    def __init__(self, rows, limit):
        super().__init__(rows)
        self.reads, self.limit = 0, limit

    def __getitem__(self, x):
        self.reads += 1
        if self.reads > self.limit:
            raise AssertionError(f"adjacency read {self.reads} times")
        return super().__getitem__(x)


def test_refine_reads_no_adjacency_once_discrete():
    # A discrete partition has nothing to split, pending splitters or not.
    n = 4
    node = list(range(n)), list(range(n)), list(range(n)), list(range(1, n + 1))
    graph._refine(Adjacency([[]] * n, 0), *node, list(range(n)))
    assert node == (list(range(n)),) * 3 + (list(range(1, n + 1)),)
    # An a-path splits into singletons in the first pass, over its one
    # cell; the fragments it queues are never read.
    adj = Adjacency([[(0, 1)], [(1, 0), (0, 2)], [(1, 1)]], 3)
    node = [0, 1, 2], [0, 1, 2], [0, 0, 0], [3, 3, 3]
    graph._refine(adj, *node, [0])
    assert adj.reads == 3 and sorted(node[2]) == [0, 1, 2]


@pytest.fixture
def searches(monkeypatch):
    """Count the labelling searches run through ``graph._canonical_labelling``."""
    count = [0]
    search = graph._canonical_labelling

    def counted(g):
        count[0] += 1
        return search(g)

    monkeypatch.setattr(graph, "_canonical_labelling", counted)
    return count


def test_one_search_per_graph(searches):
    pairs = list(random_multigraph_pairs())[:40]
    for g, h in pairs:
        phi = find_isomorphism(g, h)
        form = canonical_form(g)
        assert rename_graph(g, canonical_renaming(g)) == form
        assert (canonical_form(h) == form) == (phi is not None)
        assert rename_graph(h, canonical_renaming(h)) == canonical_form(h)
        assert (find_isomorphism(h, g) is None) == (phi is None)
    assert searches[0] == 2 * len(pairs)


def test_one_search_per_successors_result(searches, monkeypatch):
    # Per host, the results that differ as graphs.  ``_expand`` labels every
    # result it applies, an exact repeat of an earlier result of the same
    # call included.  A redex whose vertex map lies in the orbit of an
    # earlier one under the host's automorphisms, twin permutations
    # included, is not built at all, so to depth 6 no result repeats, and
    # 49 results are labelled where the twin filter alone labelled 55.
    # A rule that reuses the list of an earlier rule with its left side
    # (``ext-1``, ``ext-0``'s) is listed in full too.
    results: dict[int, list[Graph]] = {}
    maps = set()  # (host, rule, vertex map) of every redex of a full listing
    build, share, step = rewrite._orbit_redexes, rewrite._as_rule, rewrite._successor

    def full(host, rule):
        maps.update((id(host), id(rule), frozenset(r.embedding.vmap.items()))
                    for r in rewrite.find_redexes(host, rule)[0])

    def listed(host, rule, cap):
        full(host, rule)
        return build(host, rule, cap)

    def reused(redexes, rule):
        if (out := share(redexes, rule)) is not redexes:
            full(redexes[0].decomposition._host, rule)
        return out

    def counted(host, redex):
        result = step(host, redex)
        results.setdefault(id(host), []).append(result[0])
        return result

    monkeypatch.setattr(rewrite, "_orbit_redexes", listed)
    monkeypatch.setattr(rewrite, "_as_rule", reused)
    monkeypatch.setattr(rewrite, "_successor", counted)
    # A fresh empty graph, so no earlier test has labelled the start.
    kept = grammar_reachable(6, start=Graph())
    assert len(kept) == 29
    total = sum(map(len, results.values()))
    distinct = sum(len(set(rs)) for rs in results.values())
    assert total == distinct == 49
    assert searches[0] == distinct + 1
    # Every grammar rule is deterministic, so each vertex map of the full
    # listing that was not applied was skipped by orbit.
    assert len(maps) - total == 52


def test_fresh_host_is_labelled_once_a_rule_lists_two_vertex_maps(searches):
    # The twin classes and automorphisms join vertex maps before any map's
    # patch is read, so a host is labelled as soon as a deterministic rule
    # lists two maps, whether or not they adhere.  The image of 2 -a-> 3 has
    # a patch edge out of pattern vertex 0 to the context, which no type
    # edge admits, so it does not adhere: the host and its one result.
    rule = build_rule(Graph([0, 1], [(0, 0, "a", 1)]), {"rest": (0, 1)},
                      Graph([10, 11], [(20, 10, "b", 11)]), [(10, 11, "rest")])
    host = Graph([0, 1, 2, 3, 4], [(0, 0, "a", 1), (1, 2, "a", 3), (2, 2, "b", 4)])
    assert len(rewrite.successors(host, {"r": rule})[0]) == 1 and searches[0] == 2
    # Without that edge both maps adhere.  The host's automorphism that
    # swaps the two a-edges puts both maps in one orbit: the host and one
    # result.
    host = Graph([0, 1, 2, 3], [(0, 0, "a", 1), (1, 2, "a", 3)])
    assert len(rewrite.successors(host, {"r": rule})[0]) == 1 and searches[0] == 2 + 2


def test_equal_graph_built_anew_is_searched_again(searches):
    g = hub_host()
    form = canonical_form(g)
    copy = Graph(g.vertices, g.edges)
    assert copy == g and searches[0] == 1
    assert canonical_form(copy) == form
    assert searches[0] == 2
    assert canonical_form(g) == form and canonical_form(copy) == form
    assert searches[0] == 2


def disjoint_cycles(lengths, rng=None):
    """Disjoint directed ``a``-cycles of the given lengths; with ``rng``,
    vertex and edge ids are shuffled."""
    n = sum(lengths)
    ids = list(range(n))
    edge_ids = list(range(n))
    if rng is not None:
        rng.shuffle(ids)
        rng.shuffle(edge_ids)
    edges, start = {}, 0
    for length in lengths:
        for i in range(length):
            s, t = start + i, start + (i + 1) % length
            edges[edge_ids[s]] = (ids[s], "a", ids[t])
        start += length
    return Graph(ids, edges)


@pytest.mark.parametrize("lengths", [[3, 6], [3, 3, 6], [4, 4, 8], [3, 4, 5]])
def test_smaller_leaf_replaces_first_leaf(lengths):
    # Refinement cannot split these regular graphs, so the search reaches
    # leaves whose certificates differ from the first one; the form must be
    # the smallest of them whatever the numbering.
    rng = random.Random(sum(lengths))
    forms = {canonical_form(disjoint_cycles(lengths, rng)) for _ in range(20)}
    assert forms == {canonical_form(disjoint_cycles(lengths))}


@pytest.mark.parametrize("lengths, other", [([3, 3, 6], [6, 6]), ([3, 4, 5], [4, 4, 4]),
                                            ([3, 6], [4, 5])])
def test_cycle_unions_of_one_size_stay_apart(lengths, other):
    rng = random.Random(len(lengths))
    for _ in range(5):
        g, h = disjoint_cycles(lengths, rng), disjoint_cycles(other, rng)
        assert canonical_form(g) != canonical_form(h)
        assert find_isomorphism(g, h) is None


def paley(q):
    """The Paley graph of a prime ``q`` = 1 mod 4: one ``a`` edge from i to
    j > i when j - i is a nonzero square mod ``q``.  It is strongly regular,
    so refinement splits nothing, and no two vertices are twins."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_triples(range(q), [(i, "a", j) for i, j in itertools.combinations(range(q), 2)
                                         if (j - i) % q in squares])


@functools.cache
def twin_cases():
    """The grammar states to depth 7, and the other graphs: DS states, Paley
    graphs, the random multigraphs and shuffled cycle unions."""
    cycles = [disjoint_cycles(lengths, random.Random(i))
              for i, lengths in enumerate([[3, 6], [3, 3, 6], [4, 4, 8], [3, 4, 5], [6, 6]])]
    pairs = [g for pair in random_multigraph_pairs() for g in pair]
    return grammar_reachable(7), ds_states() + [paley(q) for q in (13, 17, 29)] + pairs + cycles


def twin_classes(g):
    classes = defaultdict(list)
    for x, first in (graph._labelling(g)[2] or {}).items():
        classes[first].append(x)
    return list(classes.values())


def test_reported_twins_are_automorphic():
    # Swapping two twins, with every edge id kept, gives back the graph's
    # triples: the graph up to edge ids.
    pairs = 0
    for g in itertools.chain(*twin_cases()):
        for xs in twin_classes(g):
            assert len(xs) > 1
            for x, y in itertools.combinations(xs, 2):
                swap = Renaming({v: {x: y, y: x}.get(v, v) for v in g.vertices}, {e: e for e in g.edges})
                assert Counter(rename_graph(g, swap).edges.values()) == Counter(g.edges.values())
                pairs += 1
    assert pairs > 700


def test_reported_automorphisms_are_automorphic(monkeypatch):
    # Renaming a graph by each automorphism its labelling reports, with
    # every edge id kept, gives back its triples.  An automorphism holds
    # only the vertices it moves, and a graph whose root refinement is
    # discrete reports none: its automorphism group is trivial.
    rounds, discrete, found = graph._colour_rounds, [], Counter()

    def kept(adj):
        node, cells = rounds(adj)
        discrete.append(cells == len(adj))
        return node, cells

    monkeypatch.setattr(graph, "_colour_rounds", kept)
    for g in itertools.chain(*twin_cases()):
        autos = graph._canonical_labelling(g)[3]
        assert autos == [] or not discrete[-1], g
        for sigma in autos:
            assert sigma and set(sigma) == set(sigma.values()) <= g.vertices
            assert all(v != w for v, w in sigma.items())
            moved = Renaming({v: sigma.get(v, v) for v in g.vertices}, {e: e for e in g.edges})
            assert Counter(rename_graph(g, moved).edges.values()) == Counter(g.edges.values())
        found[discrete[-1], len(autos) > 0] += 1
        found["automorphisms"] += len(autos)
    # 818 discrete roots, and 203 of the other 425 graphs with 339 automorphisms.
    assert found[True, False] == 818 and found[False, False] + found[False, True] == 425
    assert found[False, True] > 150 and found["automorphisms"] > 300


def test_canonical_classes_equal_the_references():
    # Class for class; ``test_labelling_matches_reference`` compares the
    # grammar states the same way.
    def partition(key):
        classes = defaultdict(set)
        for i, g in enumerate(twin_cases()[1]):
            classes[key(g)].add(i)
        return {frozenset(c) for c in classes.values()}

    assert partition(canonical_form) == \
        partition(lambda g: (len(g.vertices), tuple(reference_labelling(g)[1])))


def test_twins_of_isolated_vertices_star_leaves_and_equal_processes():
    assert twin_classes(Graph(range(5))) == [[0, 1, 2, 3, 4]]
    star = Graph.from_triples(range(6), [(0, "a", i) for i in range(1, 6)])
    assert twin_classes(star) == [[1, 2, 3, 4, 5]]
    # Processes 5 and 14 are both targets of request 15 (a grammar state).
    g = Graph.from_triples([5, 13, 14, 15], [(13, "_", 15), (15, "_", 5), (15, "_", 14),
                                             (15, "s", 15), (15, "z", 15)])
    assert canonical_form(g) in {canonical_form(s) for s in twin_cases()[0]}
    assert twin_classes(g) == [[5, 14]]
    assert twin_classes(paley(13)) == []


@pytest.fixture
def refines(monkeypatch):
    """Per labelling, the number of root rounds (adjacency reads over n), the
    cell count they end with, and per ``_refine`` call whether the root made
    it, with its splitter count."""
    log, rounds, refine = [], graph._colour_rounds, graph._refine

    def counted_rounds(adj):
        counted = Adjacency(adj, math.inf)
        log.append({"refines": []})
        node, cells = rounds(counted)
        log[-1].update(rounds=counted.reads / len(adj), cells=cells)
        return node, cells

    def counted_refine(adj, *node):
        log[-1]["refines"].append((isinstance(adj, Adjacency), len(node[-1])))
        return refine(list(adj), *node)  # reads the rounds do not count

    monkeypatch.setattr(graph, "_colour_rounds", counted_rounds)
    monkeypatch.setattr(graph, "_refine", counted_refine)
    return log


def test_root_rounds_hand_a_path_to_the_splitter_queue(refines):
    # A path gains two cells a round, so its first round, with 3 cells of 50,
    # does not halve the 49 vertices left to tell apart: the splitter queue
    # takes over with the two ends pending, not the largest cell, and makes
    # the path discrete.
    path = Graph.from_triples(range(50), [(i, "a", i + 1) for i in range(49)])
    graph._canonical_labelling(path)
    assert refines == [{"rounds": 1, "cells": 50, "refines": [(True, 2)]}]
    # A cycle is stable after one round: no hand-off, and the search
    # refines two individualized nodes below the root.
    cycle = Graph.from_triples(range(60), [(i, "a", (i + 1) % 60) for i in range(60)])
    graph._canonical_labelling(cycle)
    assert refines[1] == {"rounds": 1, "cells": 1, "refines": [(False, 1), (False, 1)]}
    # A DS state whose rounds end discrete is labelled with no refinement.
    state = ds_states()[0]
    graph._canonical_labelling(state)
    assert refines[2] == {"rounds": 1, "cells": len(state.vertices), "refines": []}


@pytest.mark.parametrize("g, cells, root", [
    (Graph(range(256)), 1, []),
    (Graph.from_triples(range(257), [(0, "a", i) for i in range(1, 257)]), 2, [(True, 1)])],
    ids=["isolated", "star"])
def test_a_twin_cell_is_split_without_branching(g, cells, root, refines):
    # The root rounds (the star's first one tells its centre apart from the
    # leaves, which does not halve the 256 left, so it hands over), then the
    # twins are split into singletons: the partition stays equitable, so no
    # node below the root is refined.
    canonical_form(g)
    assert refines == [{"rounds": 1, "cells": cells, "refines": root}]


def with_twins(g, twinned, copies):
    """``g`` with ``copies`` new vertices for each vertex ``v`` in
    ``twinned``, each with ``v``'s edges to the vertices of ``g`` and a loop
    for each loop of ``v``: ``v`` and its new vertices are twins."""
    vertices, edges = set(g.vertices), dict(g.edges)
    for v in twinned:
        for _ in range(copies):
            c = max(vertices) + 1
            vertices.add(c)
            for s, lab, t in g.edges.values():
                if v in (s, t):
                    edges[max(edges) + 1] = (c if s == v else s, lab, c if t == v else t)
    return Graph(vertices, edges)


@given(graphs(max_vertices=4, max_edges=5), st.integers(1, 2), st.integers(0, 3),
       st.integers(1, 2), st.integers(0, 999))
@PROPERTY
def test_twin_cells_split_without_refinement_keep_the_reference_classes(g, parts, index, copies,
                                                                         seed):
    # A vertex of ``g`` and its copies are twins in each of ``parts``
    # disjoint copies of ``g``.  ``_target_cell`` splits a cell of one twin
    # class into singletons without branching or refinement; a cell that
    # also holds the twins of another part must be branched on.  Renumbered
    # and perturbed copies must fall into the reference's classes.
    assume(g.vertices)
    rng = random.Random(seed)
    v = sorted(g.vertices)[index % len(g.vertices)]
    h = with_twins(disjoint_copies(g, parts), [200 * i + v for i in range(parts)], copies)
    cases = [h] + [shuffled(rng, h) for _ in range(3)]
    cases += [shuffled(rng, perturbed(rng, h)) for _ in range(2) if h.edges]
    assert graph._labelling(h)[2]
    assert classes(cases, canonical_form) == classes(cases, certificate(reference_labelling))
