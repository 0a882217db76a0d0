"""Graph core: union, renaming, isomorphism, patches, canonical forms."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PROPERTY, hub_host, shallow_recursion
from pgr.exceptions import DomainGap, EdgeIdClash, InvalidPatch, NotASubgraph
from pgr.graph import (
    EMPTY_GRAPH,
    Graph,
    PatchDecomposition,
    Renaming,
    canonical_form,
    canonical_renaming,
    decompose_at,
    find_isomorphism,
    graph_union,
    is_simple,
    isomorphic,
    patch_compose,
    rename_graph,
    validate_patch,
)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Oracle: try every vertex bijection that keeps each vertex's in- and
    out-degree per label, built one vertex at a time and dropped as soon as
    two mapped vertices differ in their edges, and compare edge multisets."""
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    counts, labels = (Counter(g.edges.values()), Counter(h.edges.values())), g.labels() | h.labels()

    def degrees(x):
        out = {v: Counter() for v in x.vertices}
        for s, lab, t in x.edges.values():
            out[s][lab, "out"] += 1
            out[t][lab, "in"] += 1
        return {v: frozenset(c.items()) for v, c in out.items()}

    (gd, hd), gv, vmap = map(degrees, (g, h)), sorted(g.vertices), {}
    if Counter(gd.values()) != Counter(hd.values()):
        return False

    def extend(i):  # every bijection of gv[:i] that keeps the edges among them
        if i == len(gv):
            return Counter((vmap[s], lab, vmap[t]) for s, lab, t in g.edges.values()) == counts[1]
        v, (gc, hc) = gv[i], counts
        for w in sorted(h.vertices - set(vmap.values())):
            vmap[v] = w
            if gd[v] == hd[w] and all(gc[v, lab, u] == hc[w, lab, vmap[u]] and gc[u, lab, v] ==
                                      hc[vmap[u], lab, w] for u in gv[:i + 1] for lab in labels):
                if extend(i + 1):
                    return True
            del vmap[v]
        return False

    return extend(0)


@st.composite
def graphs(draw, max_vertices=5, max_edges=6, labels="ab"):
    n = draw(st.integers(0, max_vertices))
    vertices = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    edges = []
    if vertices:
        m = draw(st.integers(0, max_edges))
        for i in range(m):
            s = draw(st.sampled_from(vertices))
            t = draw(st.sampled_from(vertices))
            lab = draw(st.sampled_from(labels))
            edges.append((i, s, lab, t))
    return Graph(vertices, edges)


def shift_renaming(g: Graph, dv: int, de: int) -> Renaming:
    return Renaming({v: v + dv for v in g.vertices},
                    {e: e + de for e in g.edges})


class TestGraphBasics:
    def test_rejects_edge_with_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Graph([1], [(0, 1, "a", 2)])

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            Graph([1], [(0, 1, "", 1)])

    def test_rejects_edge_ids_equal_after_int(self):
        with pytest.raises(ValueError, match="^duplicate edge id 1$"):
            Graph([1], [(1, 1, "a", 1), ("1", 1, "b", 1)])
        with pytest.raises(ValueError, match="^duplicate edge id 1$"):
            Graph([1], {1: (1, "a", 1), "1": (1, "b", 1)})

    def test_equality_is_exact(self):
        g = hub_host()
        assert g == hub_host()
        assert g != Graph(g.vertices, {})

    def test_incident_edges(self):
        g = hub_host()
        assert g.incident_edges(2) == {0, 1, 2, 3}
        assert g.out_edges(1) == [0, 1]


class TestUnion:
    def test_disjoint_context_and_match(self):
        c = Graph([1, 2], [(10, 2, "b", 1)])
        m = Graph.from_triples([3, 4, 5, 6],
                               [(3, "b", 4), (4, "a", 5), (5, "a", 6), (3, "c", 6)])
        u = graph_union(c, m)
        assert len(u.vertices) == 6
        assert len(u.edges) == 5

    def test_identity(self):
        g = hub_host()
        assert graph_union(g, EMPTY_GRAPH) == g
        assert graph_union(EMPTY_GRAPH, g) == g

    def test_shared_vertex_fuses(self):
        g = Graph([1, 2], [(0, 1, "a", 2)])
        h = Graph([2, 3], [(1, 2, "a", 3)])
        u = graph_union(g, h)
        assert u.vertices == frozenset({1, 2, 3})
        assert len(u.edges) == 2

    def test_edge_id_clash(self):
        g = Graph([1], [(0, 1, "a", 1)])
        h = Graph([2], [(0, 2, "a", 2)])
        with pytest.raises(EdgeIdClash):
            graph_union(g, h)

    @given(graphs(), graphs())
    @settings(PROPERTY, max_examples=50)
    def test_commutative_and_associative(self, g, h):
        h = rename_graph(h, shift_renaming(h, 100, 100))
        assert graph_union(g, h) == graph_union(h, g)
        k = Graph([500], [(400, 500, "a", 500)])
        assert graph_union(graph_union(g, h), k) == graph_union(g, graph_union(h, k))


class TestRenaming:
    def test_identity(self):
        g = hub_host()
        assert rename_graph(g, Renaming.identity(g)) == g

    def test_swap_two_vertices(self):
        g = Graph([1, 2], [(0, 1, "a", 2)])
        swapped = rename_graph(g, Renaming({1: 2, 2: 1}, {0: 0}))
        assert swapped == Graph([1, 2], [(0, 2, "a", 1)])
        assert isomorphic(g, swapped)

    def test_inverse_round_trip(self):
        g = hub_host()
        phi = shift_renaming(g, 7, 13)
        assert rename_graph(rename_graph(g, phi), phi.inverse()) == g

    def test_domain_gap(self):
        g = hub_host()
        with pytest.raises(DomainGap):
            rename_graph(g, Renaming({1: 10}, {}))

    def test_not_injective(self):
        with pytest.raises(ValueError):
            Renaming({1: 5, 2: 5}, {})

    @given(graphs())
    @settings(PROPERTY, max_examples=40)
    def test_round_trip_property(self, g):
        phi = shift_renaming(g, 50, 70)
        assert rename_graph(rename_graph(g, phi), phi.inverse()) == g


class TestIsSimple:
    def test_single_edge(self):
        assert is_simple(Graph([1, 2], [(0, 1, "a", 2)]))

    def test_parallel_same_label(self):
        assert not is_simple(Graph([1, 2], [(0, 1, "a", 2), (1, 1, "a", 2)]))

    def test_parallel_different_label(self):
        assert is_simple(Graph([1, 2], [(0, 1, "a", 2), (1, 1, "b", 2)]))

    def test_hub_host_is_simple(self):
        assert is_simple(hub_host())


class TestIsomorphism:
    def test_single_loop_vertices(self):
        g = Graph([1], [(0, 1, "a", 1)])
        h = Graph([9], [(4, 9, "a", 9)])
        phi = find_isomorphism(g, h)
        assert phi is not None
        assert rename_graph(g, phi) == h

    def test_label_mismatch(self):
        g = Graph([1, 2], [(0, 1, "a", 2)])
        h = Graph([1, 2], [(0, 1, "b", 2)])
        assert find_isomorphism(g, h) is None

    def test_hub_host_random_renaming(self):
        g = hub_host()
        rng = random.Random(7)
        vs = sorted(g.vertices)
        perm = vs[:]
        rng.shuffle(perm)
        phi = Renaming(dict(zip(vs, perm)),
                       {e: e + 50 for e in g.edges})
        h = rename_graph(g, phi)
        w = find_isomorphism(g, h)
        assert w is not None
        assert rename_graph(g, w) == h
        assert brute_force_isomorphic(g, h)

    def test_parallel_edges_multiplicity(self):
        g = Graph([1, 2], [(0, 1, "a", 2), (1, 1, "a", 2)])
        h = Graph([1, 2], [(0, 1, "a", 2), (1, 2, "a", 1)])
        assert find_isomorphism(g, h) is None

    @given(graphs(max_vertices=4, max_edges=5), graphs(max_vertices=4, max_edges=5))
    @settings(PROPERTY, max_examples=60)
    def test_agrees_with_brute_force(self, g, h):
        assert (find_isomorphism(g, h) is not None) == brute_force_isomorphic(g, h)

    def test_exhaustive_small_graph_sweep(self):
        # Every graph on at most three vertices with at most two edges over
        # two labels, all pairs, against the brute-force oracle.
        family = []
        for n in range(4):
            vs = list(range(n))
            pool = [(s, lab, t) for s in vs for t in vs for lab in "ab"]
            for m in range(3):
                for combo in itertools.combinations_with_replacement(pool, m):
                    family.append(Graph(vs, [(i, s, lab, t)
                                             for i, (s, lab, t) in enumerate(combo)]))
        assert len(family) > 150
        for g, h in itertools.combinations(family, 2):
            if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
                continue
            assert (find_isomorphism(g, h) is not None) == \
                brute_force_isomorphic(g, h)

    @given(graphs(max_vertices=4, max_edges=5))
    @settings(PROPERTY, max_examples=40)
    def test_witness_reproduces_target(self, g):
        h = rename_graph(g, shift_renaming(g, 11, 17))
        w = find_isomorphism(g, h)
        assert w is not None
        assert rename_graph(g, w) == h


class TestPatch:
    def example_decomposition(self):
        c = Graph([1, 2], [(10, 2, "b", 1)])
        m = Graph([3, 4, 5, 6],
                  [(0, 3, "b", 4), (1, 4, "a", 5), (2, 5, "a", 6), (3, 3, "c", 6)])
        j = Graph([2, 3, 4, 5, 6],
                  [(20, 2, "a", 3), (21, 6, "b", 2), (22, 4, "b", 5), (23, 4, "b", 6)])
        return c, j, m

    def test_valid_example(self):
        assert validate_patch(*self.example_decomposition()) == []

    def test_compose_example(self):
        g = patch_compose(*self.example_decomposition())
        assert len(g.vertices) == 6
        assert len(g.edges) == 9

    def test_empty_patch_is_valid(self):
        assert validate_patch(Graph([1]), EMPTY_GRAPH, Graph([2])) == []

    def test_patch_edge_inside_context_is_invalid(self):
        violations = validate_patch(Graph([1, 2]), Graph([1, 2], [(5, 1, "a", 2)]),
                                    Graph([3]))
        assert violations
        assert any("between context and match" in v for v in violations)

    def test_compose_raises_on_invalid(self):
        with pytest.raises(InvalidPatch):
            patch_compose(Graph([1, 2]), Graph([1, 2], [(5, 1, "a", 2)]), Graph([3]))

    def test_trivial_compose(self):
        g = hub_host()
        assert patch_compose(EMPTY_GRAPH, EMPTY_GRAPH, g) == g

    def test_compose_equals_a_checked_build(self):
        # Trusted, yet the same graph as the checked constructor gives, edge
        # order included, and with no index built.
        parts = self.example_decomposition()
        g = patch_compose(*parts)
        built = Graph(frozenset().union(*(p.vertices for p in parts)),
                      {e: triple for p in parts for e, triple in p.edges.items()})
        assert g == built and list(g.edges.items()) == list(built.edges.items())
        assert g._index is None


class TestDecompose:
    def test_three_edge_patch(self):
        # Triangle pattern matched inside a five-vertex host: the patch picks
        # up two match/context edges and one in-match edge.
        host = Graph.from_triples(
            [3, 4, 5, 6, 7],
            [(3, "b", 4), (4, "a", 5), (5, "a", 3),
             (4, "b", 6), (7, "a", 5), (5, "c", 3), (6, "b", 7)],
        )
        d = decompose_at(host, {3, 4, 5}, {0, 1, 2})
        assert set(d.patch.edges) == {3, 4, 5}
        assert set(d.context.edges) == {6}
        assert patch_compose(d.context, d.patch, d.match) == host

    def test_whole_graph_as_match(self):
        g = hub_host()
        d = decompose_at(g, g.vertices, set(g.edges))
        assert d.context == EMPTY_GRAPH
        assert d.patch == EMPTY_GRAPH

    def test_not_a_subgraph(self):
        g = hub_host()
        with pytest.raises(NotASubgraph):
            decompose_at(g, {2}, {3})  # edge 3 leaves vertex 2

    def test_context_refuses_a_missed_patch_edge(self):
        # Patch ids that miss edge 0 (1 -b-> 2) would leave it in C with
        # its end on match vertex 2: C refuses it rather than dangle.
        g = hub_host()
        d = decompose_at(g, {2}, {2})
        short = PatchDecomposition(g, d.match.vertices, frozenset(d.match.edges),
                                   sorted(d.patch.edges)[1:])
        assert sorted(d.patch.edges) == [0, 1, 3]
        with pytest.raises(InvalidPatch, match=r"touch the match: \[0\]"):
            short.context
        assert short.patch.edges == {1: (1, "c", 2), 3: (2, "d", 3)}

    @given(graphs(), st.data())
    @settings(PROPERTY, max_examples=60)
    def test_round_trip(self, g, data):
        vs = data.draw(st.sets(st.sampled_from(sorted(g.vertices))))  \
            if g.vertices else set()
        inside = [e for e in g.edges
                  if g.src(e) in vs and g.tgt(e) in vs]
        es = set(data.draw(st.sets(st.sampled_from(inside)))) if inside else set()
        d = decompose_at(g, vs, es)
        assert validate_patch(d.context, d.patch, d.match) == []
        assert patch_compose(d.context, d.patch, d.match) == g


class TestCanonicalForm:
    def test_idempotent(self):
        g = hub_host()
        assert canonical_form(canonical_form(g)) == canonical_form(g)

    def test_isomorphic_to_input(self):
        g = hub_host()
        assert isomorphic(canonical_form(g), g)

    def test_two_renamings_agree(self):
        g = hub_host()
        rng = random.Random(3)
        for _ in range(5):
            vs = sorted(g.vertices)
            perm = vs[:]
            rng.shuffle(perm)
            phi = Renaming(dict(zip(vs, perm)), {e: e + 90 for e in g.edges})
            assert canonical_form(rename_graph(g, phi)) == canonical_form(g)

    def test_canonical_renaming_witnesses(self):
        g = hub_host()
        assert rename_graph(g, canonical_renaming(g)) == canonical_form(g)

    def test_isomorphic_waitfor_nets_share_a_form(self):
        # Two states of the wait-for grammar walk at depth 8: four request
        # vertices (z and s loops) among eight vertices.
        g = Graph([5, 7, 12, 14, 21, 28, 29, 30], [
            (0, 5, "_", 7), (1, 7, "_", 29), (2, 7, "s", 7), (3, 7, "z", 7),
            (4, 12, "_", 14), (5, 14, "_", 28), (6, 14, "s", 14), (7, 14, "z", 14),
            (8, 21, "_", 28), (9, 21, "s", 21), (10, 21, "z", 21), (11, 28, "_", 30),
            (12, 29, "_", 21), (13, 30, "_", 29), (14, 30, "s", 30), (15, 30, "z", 30)])
        h = Graph([7, 12, 14, 21, 22, 30, 31, 32], [
            (0, 7, "_", 31), (1, 7, "s", 7), (2, 7, "z", 7), (3, 12, "_", 14),
            (4, 14, "_", 21), (5, 14, "s", 14), (6, 14, "z", 14), (7, 21, "_", 7),
            (8, 22, "_", 21), (9, 22, "s", 22), (10, 22, "z", 22), (11, 30, "_", 32),
            (12, 31, "_", 22), (13, 32, "_", 31), (14, 32, "s", 32), (15, 32, "z", 32)])
        assert brute_force_isomorphic(g, h)
        assert canonical_form(g) == canonical_form(h)

    def test_large_inputs_need_no_recursion(self):
        path = Graph.from_triples(range(300), [(i, "a", i + 1) for i in range(299)])
        moved = rename_graph(path, shift_renaming(path, 1000, 1000))
        isolated = Graph(range(64))
        with shallow_recursion():
            same_path = canonical_form(moved) == canonical_form(path)
            phi = find_isomorphism(path, moved)
            isolated_form = canonical_form(isolated)
            psi = find_isomorphism(isolated, Graph(range(100, 164)))
        assert same_path
        assert rename_graph(path, phi) == moved
        assert isolated_form == isolated
        assert rename_graph(isolated, psi) == Graph(range(100, 164))

    @given(graphs(max_vertices=4, max_edges=5), graphs(max_vertices=4, max_edges=5),
           st.randoms(use_true_random=False))
    @settings(PROPERTY, max_examples=60)
    def test_respects_isomorphism_both_ways(self, g, h, rnd):
        assert (canonical_form(g) == canonical_form(h)) == brute_force_isomorphic(g, h)
        vs = sorted(g.vertices)
        perm = vs[:]
        rnd.shuffle(perm)
        moved = rename_graph(g, Renaming(dict(zip(vs, perm)), {e: e + 40 for e in g.edges}))
        assert canonical_form(moved) == canonical_form(g)


def random_multigraph(rng, n, m, labels="ab"):
    vs = rng.sample(range(100), n)
    return Graph(vs, [(i, rng.choice(vs), rng.choice(labels), rng.choice(vs))
                      for i in range(m)])


def disjoint_copies(part, k):
    """``k`` copies of ``part``, ids shifted apart: a graph with automorphisms."""
    edges, vertices = {}, []
    for i in range(k):
        vertices += [200 * i + v for v in part.vertices]
        edges.update({200 * i + e: (200 * i + s, lab, 200 * i + t)
                      for e, (s, lab, t) in part.edges.items()})
    return Graph(vertices, edges)


def shuffled(rng, g):
    """A copy of ``g`` under random vertex and edge ids."""
    vs, es = sorted(g.vertices), sorted(g.edges)
    return rename_graph(g, Renaming(dict(zip(vs, rng.sample(range(1000), len(vs)))),
                                    dict(zip(es, rng.sample(range(1000), len(es))))))


def perturbed(rng, g):
    """``g`` with one edge relabelled or retargeted."""
    edges = dict(g.edges)
    e = rng.choice(sorted(edges))
    s, lab, t = edges[e]
    if rng.random() < 0.5:
        edges[e] = (s, "b" if lab == "a" else "a", t)
    else:
        edges[e] = (s, lab, rng.choice(sorted(g.vertices)))
    return Graph(g.vertices, edges)


def random_multigraph_pairs():
    """240 seeded pairs ``(g, h)``: ``g`` is a 6-9-vertex multigraph or
    disjoint copies of a small one, ``h`` a shuffled copy of ``g`` or of
    ``g`` perturbed."""
    rng = random.Random(2024)
    for trial in range(240):
        if trial % 2:
            g = random_multigraph(rng, rng.randint(6, 9), rng.randint(6, 16))
        else:
            size, k = rng.choice(((2, 3), (3, 2), (3, 3)))
            g = disjoint_copies(random_multigraph(rng, size, rng.randint(1, 5)), k)
        yield g, shuffled(rng, g if trial % 3 == 0 else perturbed(rng, g))


class TestAgainstNetworkx:
    """Verdicts and witnesses against networkx's matcher, on labelled
    multigraphs with loops and parallel edges too large for brute force."""

    @staticmethod
    def to_networkx(nx, g):
        out = nx.MultiDiGraph()
        out.add_nodes_from(g.vertices)
        out.add_edges_from((s, t, {"label": lab}) for s, lab, t in g.edges.values())
        return out

    def test_random_multigraphs(self):
        nx = pytest.importorskip("networkx")

        def same_labels(a, b):
            # The edges between one vertex pair: compare label multisets.
            return Counter(d["label"] for d in a.values()) == \
                Counter(d["label"] for d in b.values())

        verdicts = Counter()
        for g, h in random_multigraph_pairs():
            expected = nx.is_isomorphic(self.to_networkx(nx, g), self.to_networkx(nx, h),
                                        edge_match=same_labels)
            verdicts[expected] += 1
            phi = find_isomorphism(g, h)
            assert (phi is not None) == expected, (g, h)
            assert (canonical_form(g) == canonical_form(h)) == expected, (g, h)
            if expected:
                assert rename_graph(g, phi) == h
            assert rename_graph(g, canonical_renaming(g)) == canonical_form(g)
        assert verdicts[True] > 60 and verdicts[False] > 60
