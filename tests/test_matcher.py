"""The search with one matcher per left scheme against the search it replaced.

``previous_embeddings`` is the search before matchers: content-keyed caches
and a plan started at every (anchor, pattern vertex) pair.  Its lists must
come back identical, in order, with and without the type, and with no
anchors, an empty anchor set and random ones; without the type they must
also equal the full scan of ``reference_embeddings``.
"""

import contextlib
import random
from collections import Counter
from operator import eq

from fixtures import (
    deadlock_workload_nets,
    ds_states,
    random_deterministic_rule,
    random_graph,
    random_instances,
    random_quasi_rule,
    sample_documents,
)
from previous_search import previous_embeddings
from test_matching import reference_embeddings

from pgr import matching, rewrite, systems
from pgr.exceptions import StepLimitReached
from pgr.graph import Graph
from pgr.matching import find_pattern_embeddings, find_redexes
from pgr.rewrite import normalize
from pgr.rules import CONTEXT, PatchType
from pgr.systems import deadlock_rules, detect_deadlock, dijkstra_scholten_system


def anchor_sets(rng, host):
    """No anchors, the empty set, and a random set that may hold ids off
    the host."""
    ids = sorted(host.vertices) + [max(host.vertices, default=0) + 1]
    return [None, set(), set(rng.sample(ids, rng.randint(1, min(3, len(ids)))))]


def assert_like_previous(rng, host, rule):
    """The new search equals the previous one for every anchor set, with
    and without the left type; returns the number of embeddings listed."""
    pattern, ptype = rule.lhs.pattern, rule.lhs.ptype
    full = reference_embeddings(host, pattern)
    listed = 0
    for anchors in anchor_sets(rng, host):
        for t in (None, ptype):
            got = find_pattern_embeddings(host, pattern, t, anchors)
            assert got == previous_embeddings(host, pattern, t, anchors), (host, rule, anchors)
            listed += len(got)
        assert find_pattern_embeddings(host, pattern, None, anchors) == [
            e for e in full if anchors is None or not anchors.isdisjoint(e.image_vertices())]
    return listed


class TestMissingLabel:
    def test_no_search_for_a_label_the_host_lacks(self, monkeypatch):
        # ``snd-b-2`` needs a ``left-2`` loop, which a state with one send
        # left per process lacks: no vertex map is searched, anchored or not.
        calls, maps = [0], matching._vertex_maps
        rule, state = systems._walk_rules(2)["snd-b-2"], ds_states()[0]
        pattern, ptype = rule.lhs.pattern, rule.lhs.ptype

        def counted(*args):
            calls[0] += 1
            return maps(*args)

        monkeypatch.setattr(matching, "_vertex_maps", counted)
        spent = systems._with_budgets(state, 1)
        assert "left-2" not in spent.labels()
        for anchors in (None, set(spent.vertices)):
            for t in (None, ptype):
                assert find_pattern_embeddings(spent, pattern, t, anchors) == []
        assert find_redexes(spent, rule) == ([], False) and calls[0] == 0
        assert find_redexes(systems._with_budgets(state, 2), rule)[0] and calls[0] == 1


class TestAgainstPreviousSearch:
    def test_random_instances(self):
        rng = random.Random(12)
        assert sum(assert_like_previous(rng, host, rule)
                   for host, rule, _ in random_instances(rng, 150)) > 300

    def test_random_quasi_rule_hosts(self):
        rng = random.Random(13)
        listed = 0
        for i in range(400):
            host = random_graph(rng, list(range(rng.randint(1, 6))), 9)
            rule = random_quasi_rule(rng) if i % 2 else random_deterministic_rule(rng)
            listed += assert_like_previous(rng, host, rule)
        assert listed > 400

    def test_samples(self):
        rng = random.Random(14)
        docs = sample_documents()
        assert sum(assert_like_previous(rng, g, r) for gd in docs for g in gd.graphs.values()
                   for rd in docs for r in rd.rules.values()) > 0

    def test_deadlock_workload_nets(self):
        rng = random.Random(15)
        nets = deadlock_workload_nets()
        assert sum(assert_like_previous(rng, g, rule) for g, _, _ in nets
                   for rule in deadlock_rules().values()) > len(nets)

    def test_dijkstra_scholten_states(self):
        rng = random.Random(16)
        system = dijkstra_scholten_system()
        assert sum(assert_like_previous(rng, g, rule) for g in ds_states()[::3]
                   for rule in system.values()) > 0

    def test_searches_of_normalize(self, monkeypatch):
        # The anchored searches that ``normalize`` makes after each step,
        # on the host as it is at the time of the call.
        search = matching._embeddings
        calls = []

        def checked(host, pattern, ptype, anchors):
            got = search(host, pattern, ptype, anchors)
            assert [r for _, r in got] == previous_embeddings(host, pattern, ptype, anchors)
            calls.append(anchors is not None)
            return got

        monkeypatch.setattr(matching, "_embeddings", checked)
        for g, _, _ in deadlock_workload_nets()[::10]:
            detect_deadlock(g)
        for g in ds_states()[::60]:
            with contextlib.suppress(StepLimitReached):
                normalize(g, dijkstra_scholten_system(), "random", seed=1, max_steps=30)
        assert sum(calls) > 100 and not all(calls)


def test_zero_needs_leave_out_what_cannot_adhere():
    # A typed search needs exactly 0 edges on each side, loops included,
    # that no type edge opens and the pattern leaves empty: a host vertex
    # with such an edge cannot adhere, and no embedding is listed there.
    pattern = Graph([0])
    ptype = PatchType(pattern, {1: (CONTEXT, 0)})
    assert sorted(matching._Matcher(pattern, ptype).needs[0]) == [
        (("loop", None), 0, eq), (("out", None), 0, eq)]
    host = Graph.from_triples([1, 2, 3, 4], [(2, "a", 1), (4, "a", 4)])
    assert [r.vmap[0] for r in find_pattern_embeddings(host, pattern, ptype)] == [1, 3]
    assert [r.vmap[0] for r in find_pattern_embeddings(host, pattern)] == [1, 2, 3, 4]


def degree_admits(host, pattern, ptype, p, a):
    """Whether host vertex ``a`` has the degrees to be the image of pattern
    vertex ``p``: at least p's edges per side and label, loops included,
    and exactly p's on each side that no type edge opens."""
    def sides(g, v):
        out, inc = g.out_edges(v), g.in_edges(v)
        return (Counter(g.label(e) for e in out), Counter(g.label(e) for e in inc),
                Counter(g.label(e) for e in out if g.tgt(e) == v))

    shapes = set(ptype.edges.values())
    opened = (any(s == p for s, _ in shapes), any(t == p for _, t in shapes), (p, p) in shapes)
    return all(all(h[lab] >= n for lab, n in need.items()) and (free or h.total() == need.total())
               for need, h, free in zip(sides(pattern, p), sides(host, a), opened))


def test_plans_start_only_where_the_anchor_meets_the_needs(monkeypatch):
    # Counted: one start per (anchor, pattern vertex) pair that passes the
    # degree test, none at the others, and the embeddings stay the same.
    vertex_maps = matching._vertex_maps
    starts = []

    def recorded(host, plan, first, *args):
        starts.append((first[0], plan[0][0]))
        return vertex_maps(host, plan, first, *args)

    monkeypatch.setattr(matching, "_vertex_maps", recorded)
    pairs = admitted = 0
    for g, _, _ in deadlock_workload_nets()[::8]:
        anchors = set(sorted(g.vertices)[::2])
        for rule in deadlock_rules().values():
            pattern, ptype = rule.lhs.pattern, rule.lhs.ptype
            starts.clear()
            got = find_pattern_embeddings(g, pattern, ptype, anchors)
            expected = [(a, p) for a in sorted(anchors) for p in sorted(pattern.vertices)
                        if degree_admits(g, pattern, ptype, p, a)]
            assert starts == expected
            assert got == previous_embeddings(g, pattern, ptype, anchors)
            pairs += len(anchors) * len(pattern.vertices)
            admitted += len(expected)
    assert 0 < admitted < pairs / 2


def previous_counts(g, v):
    """``matching._counts`` as it was before the index kept the counts: the
    edges at ``v`` by side and label, counted afresh, with the three side
    totals present even at 0."""
    edges, out, inc = g.edges, g.out_edges(v), g.in_edges(v)
    counts = {("out", None): len(out), ("in", None): len(inc), ("loop", None): 0}
    for e in out:
        _, lab, t = edges[e]
        counts["out", lab] = counts.get(("out", lab), 0) + 1
        if t == v:
            counts["loop", None] += 1
            counts["loop", lab] = counts.get(("loop", lab), 0) + 1
    for e in inc:
        key = ("in", edges[e][1])
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_counts_like_previous(g):
    """Every vertex's ``edge_counts`` are the previous counts without their
    zeros; returns the number of vertices compared."""
    for v in g.vertices:
        assert g.edge_counts(v) == {k: n for k, n in previous_counts(g, v).items() if n}, (g, v)
    return len(g.vertices)


class TestCountsAgainstPrevious:
    """The counts that the index keeps against the per-search counts they
    replace, on fresh graphs and on drafts after every step."""

    def test_random_graphs(self):
        rng = random.Random(17)
        assert sum(assert_counts_like_previous(host) for host, _, _ in
                   random_instances(rng, 150)) > 150
        assert sum(assert_counts_like_previous(random_graph(rng, list(range(6)), 12))
                   for _ in range(200)) == 1200

    def test_samples_and_dijkstra_scholten_states(self):
        graphs = [g for doc in sample_documents() for g in doc.graphs.values()] + ds_states()
        assert sum(map(assert_counts_like_previous, graphs)) > len(graphs)

    def test_drafts_after_every_normalize_step(self, monkeypatch):
        step, steps = rewrite._step, []

        def checked(g, redex, fresh_base):
            cert = step(g, redex, fresh_base)
            steps.append(assert_counts_like_previous(g))
            return cert

        monkeypatch.setattr(rewrite, "_step", checked)
        nets = deadlock_workload_nets()
        for g, _, _ in nets[::3]:
            detect_deadlock(g)
        for g in ds_states()[::30]:
            with contextlib.suppress(StepLimitReached):
                normalize(g, dijkstra_scholten_system(), "random", seed=2, max_steps=30)
        assert len(steps) > len(nets)
