"""Redex sets kept across steps against a fresh search after every step.

``reference_normalize`` is ``normalize`` as it was before ``RedexSets``:
every rule searched from scratch after each step, and each step built by
``reference_apply_at`` as a new graph.  ``checked_normalize``
runs the real ``normalize`` and compares each redex list it reads with a
fresh ``find_redexes`` of the current host.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from previous_search import previous_embeddings

from fixtures import (
    PROPERTY,
    aloop_pattern,
    anchored_redexes,
    deadlock_workload_nets,
    delete_rule,
    duplicate_rule,
    invert_pull_rule,
    perfbench_module,
    random_deterministic_rule,
    random_graph,
    random_quasi_rule,
    redirect_rule,
    reference_apply_at,
    set_map_cap,
)
from pgr import graph, matching, rewrite, rules
from pgr.exceptions import StepLimitReached
from pgr.graph import EMPTY_GRAPH, Graph
from pgr.matching import RedexSets, find_pattern_embeddings, find_redexes
from pgr.rewrite import StepRecord, normalize
from pgr.rules import CONTEXT, build_rule
from pgr.systems import (
    deadlock_rules,
    detect_deadlock,
    dijkstra_scholten_system,
    ds_initial_network,
    waitfor_system,
)


def reference_normalize(host, system, strategy="first", seed=None, max_steps=10000):
    if strategy not in ("first", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    g = host
    trace = []
    for _ in range(max_steps):
        pool, truncated = [], False
        for name, rule in system.items():
            redexes, cut = find_redexes(g, rule)
            truncated = truncated or cut
            pool.extend((name, r) for r in redexes)
            if pool and strategy == "first":
                break
        if not pool:
            return g, trace
        name, redex = pool[0] if strategy == "first" else pool[rng.randrange(len(pool))]
        g, _ = reference_apply_at(g, redex)
        mv, me = redex.match_summary()
        trace.append(StepRecord(name, mv, me, truncated))
    # One more look: the limit only matters if a redex is still there.
    if any(find_redexes(g, rule)[0] for rule in system.values()):
        raise StepLimitReached(g, trace)
    return g, trace


def outcome(fn, *args, **kwargs):
    """The result and trace, or the partial ones of a step limit."""
    try:
        return ("normal form", *fn(*args, **kwargs))
    except StepLimitReached as exc:
        return "step limit", exc.graph, exc.trace


def assert_same_redexes(kept, fresh):
    assert len(kept) == len(fresh)
    for a, b in zip(kept, fresh):
        assert a.rule is b.rule
        assert a.embedding == b.embedding
        assert a.h_l == b.h_l
        assert a.capped == b.capped
        # Patch, match and the context derived from the current host.
        assert a.decomposition == b.decomposition


def checked_normalize(monkeypatch, host, system, **kwargs):
    """``normalize`` with every redex list it reads checked against a fresh
    ``find_redexes``; returns its outcome and the number of checks."""
    read = RedexSets.entries
    checks = []

    def entries(self, name):
        listed = read(self, name)
        fresh, cut = find_redexes(self.host, self.system[name])
        assert_same_redexes([self.redex(name, x, h_l) for x in listed[0] for h_l in x.maps],
                            fresh)
        assert listed[1] == cut
        checks.append(name)
        return listed

    with monkeypatch.context() as m:
        m.setattr(RedexSets, "entries", entries)
        result = outcome(normalize, host, system, **kwargs)
    return result, len(checks)


def assert_like_reference(monkeypatch, host, system, **kwargs):
    """Checked sets, and a result and trace id-exact with the reference
    (also unchecked, so that the checks cannot change what is chosen)."""
    expected = outcome(reference_normalize, host, system, **kwargs)
    result, checks = checked_normalize(monkeypatch, host, system, **kwargs)
    assert result == expected
    assert outcome(normalize, host, system, **kwargs) == expected
    assert checks > len(expected[2])
    return expected


class TestAgainstFreshSearch:
    def test_rings_and_chains(self, monkeypatch):
        scaling = perfbench_module("scaling")
        for n in (2, 3, 12):
            host, rule = scaling.ring(graph, rules, n)
            _, g, trace = assert_like_reference(monkeypatch, host, {"drop-loop": rule})
            assert len(trace) == n and "a" not in g.labels()
            assert_like_reference(monkeypatch, host, {"drop-loop": rule},
                                  strategy="random", seed=n)
        for k in (1, 2, 9):
            _, g, _ = assert_like_reference(
                monkeypatch, scaling.chain(graph, k), deadlock_rules())
            assert g.is_empty()

    def test_deadlock_workload_nets(self, monkeypatch):
        # Counted as well: ``grant`` carries all four of its type edges, so
        # after a grant step the anchored grant searches (only ``RedexSets``
        # anchors one) before the next step start only at the vertices that
        # the step created, or none is run.
        system = deadlock_rules()
        events, step, search = [], rewrite._step, matching._redex_entries

        def counted_step(g, redex, fresh_base):
            inst = step(g, redex, fresh_base)
            events.append(("step", redex.rule, inst.image_vertices()))
            return inst

        def counted_search(host, rule, cap, anchors=None):
            events.append(("search", rule, anchors))
            return search(host, rule, cap, anchors)

        monkeypatch.setattr(rewrite, "_step", counted_step)
        monkeypatch.setattr(matching, "_redex_entries", counted_search)
        nets = deadlock_workload_nets()
        for i, (g, deadlocked, left) in enumerate(nets[::9]):
            _, nf, _ = assert_like_reference(monkeypatch, g, system)
            assert (not nf.is_empty(), len(nf.vertices)) == (deadlocked, left)
            assert_like_reference(monkeypatch, g, system, strategy="random", seed=i)
        grants = searches = 0
        for i, (kind, rule, created) in enumerate(events):
            if kind == "step" and rule is system["grant"]:
                grants += 1
                for _, searched, anchors in itertools.takewhile(lambda ev: ev[0] == "search",
                                                                events[i + 1:]):
                    if anchors is not None and searched is system["grant"]:
                        assert anchors <= created
                        searches += 1
        assert grants > 100 and searches > 100

    def test_random_hosts_and_rules(self, monkeypatch):
        # Counted: steps with a patch edge at a context end whose type edge
        # the rule carries, and steps with one whose type edge it does not.
        rng = random.Random(7)
        limits, step, kinds = 0, rewrite._step, Counter()

        def counted_step(g, redex, fresh_base):
            types, carried = redex.rule.lhs.ptype.edges, redex.rule.carried
            kinds.update({left in carried for left in redex.h_l.values()
                          if CONTEXT in types[left]})
            return step(g, redex, fresh_base)

        monkeypatch.setattr(rewrite, "_step", counted_step)
        for i in range(150):
            host = random_graph(rng, list(range(rng.randint(1, 6))), 9)
            system = {f"r{k}": random_deterministic_rule(rng) if rng.random() < 0.5
                      else random_quasi_rule(rng) for k in range(rng.randint(1, 3))}
            set_map_cap(monkeypatch, (None, 2, 8)[i % 3])
            kind, _, _ = assert_like_reference(monkeypatch, host, system, max_steps=12)
            limits += kind == "step limit"
            assert_like_reference(monkeypatch, host, system, strategy="random", seed=i,
                                  max_steps=12)
        assert limits > 10
        assert kinds[True] > 50 and kinds[False] > 300

    def test_capped_steps(self, monkeypatch):
        # Two parallel placeholders and three patch edges: eight maps, cut
        # at two; the flag must follow the capped embedding.
        monkeypatch.setenv("PGR_MAX_MAPS", "2")
        pattern = Graph([0], [(0, 0, "a", 0)])
        quasi = build_rule(pattern, {"p": (CONTEXT, 0), "q": (CONTEXT, 0)},
                           Graph([10]), [])
        host = Graph.from_triples(range(5), [(0, "a", 0), (1, "b", 0), (2, "b", 0), (3, "b", 0),
                                             (4, "a", 4)])
        for strategy in ("first", "random"):
            _, _, trace = assert_like_reference(monkeypatch, host, {"q": quasi},
                                                strategy=strategy, seed=1)
            assert [r.truncated for r in trace] == [True, False]

    def test_carried_and_uncarried_context_ends(self, monkeypatch):
        # Rules that drop, duplicate or flip a placeholder, and one that
        # carries two parallel ones (a quasi rule), each beside a rule that
        # matches only without out-edges.  Vertex 1 has an in- and an
        # out-edge at 0 (under the flip rule one is carried and one is not),
        # vertex 2 only an in-edge from 0; a step at 0 flips the out-edge of
        # 5 or keeps it.
        parallel = build_rule(aloop_pattern(), {"p": (CONTEXT, 0), "q": (CONTEXT, 0),
                                                "out": (0, CONTEXT)},
                              Graph([10]), [(CONTEXT, 10, "p"), (CONTEXT, 10, "q"),
                                            (10, CONTEXT, "out")])
        in_only = build_rule(aloop_pattern(), {"in": (CONTEXT, 0)}, Graph([10]),
                             [(CONTEXT, 10, "in")])
        host = Graph.from_triples(range(6), [(0, "a", 0), (1, "a", 1), (2, "a", 2), (1, "b", 0),
                                             (0, "b", 1), (0, "c", 2), (3, "c", 0), (3, "b", 2),
                                             (4, "b", 2), (2, "c", 4), (4, "a", 4), (1, "c", 4),
                                             (5, "a", 5), (5, "b", 0)])
        for rule in (delete_rule(), duplicate_rule(), invert_pull_rule(), redirect_rule(),
                     parallel):
            for cap, seed in itertools.product((None, 2), range(3)):
                set_map_cap(monkeypatch, cap)
                system = {"r": rule, "in-only": in_only}
                assert_like_reference(monkeypatch, host, system, max_steps=8)
                assert_like_reference(monkeypatch, host, system, strategy="random", seed=seed,
                                      max_steps=8)

    def test_waitfor_system_step_limit(self, monkeypatch):
        # ``create`` has the empty left pattern: its one embedding touches no
        # vertex, so it stays in the set and must never be found twice.
        scaling = perfbench_module("scaling")
        for seed in range(6):
            host = scaling.chain(graph, seed) if seed else EMPTY_GRAPH
            for strategy in ("first", "random"):
                kind, _, trace = assert_like_reference(
                    monkeypatch, host, waitfor_system(), strategy=strategy, seed=seed,
                    max_steps=8)
                assert kind == "step limit" and len(trace) == 8

    def test_dijkstra_scholten(self, monkeypatch):
        for links, initiator in ([(0, 1), (1, 2)], 0), ([(0, 1), (1, 2), (2, 0)], 1):
            host = ds_initial_network(links, initiator).graph
            for seed in range(4):
                assert_like_reference(monkeypatch, host, dijkstra_scholten_system(),
                                      strategy="random", seed=seed, max_steps=20)
            assert_like_reference(monkeypatch, host, dijkstra_scholten_system(),
                                  max_steps=20)


def pattern_host(rng, rule, copies):
    """``copies`` disjoint copies of ``rule``'s left pattern, vertex v of
    copy c being 10c + v, and a few random edges.  One vertex of the first
    copy has an edge of one label and direction with a vertex of each other
    copy, so a step at the first copy has that many context ends that each
    hold an embedding."""
    vs, pattern = sorted(rule.lhs.pattern.vertices), rule.lhs.pattern
    triples = [(10 * c + s, lab, 10 * c + t) for c in range(copies)
               for s, lab, t in pattern.edges.values()]
    hub, lab, out = rng.choice(vs), rng.choice("ab"), rng.random() < 0.5
    for c in range(1, copies):
        sender = 10 * c + rng.choice(vs)
        triples.append((hub, lab, sender) if out else (sender, lab, hub))
    vertices = [10 * c + v for c in range(copies) for v in vs]
    triples += [(rng.choice(vertices), rng.choice("ab"), rng.choice(vertices))
                for _ in range(rng.randint(0, 2))]
    return Graph.from_triples(vertices, triples)


def test_kept_sets_equal_a_fresh_search_after_drawn_steps():
    # The property: on drawn hosts and systems of deterministic and quasi
    # rules, under both strategies and map caps of none, 2 and 8, every
    # entry list that ``normalize`` reads equals a fresh ``find_redexes``.
    # Six steps at most, as a rule that copies patch edges can double its
    # host per step.  The hosts are random, and built around a rule's
    # pattern (``pattern_host``).  Counted over the draws: steps with a
    # patch edge at a context end whose type edge the rule carries, steps
    # with one whose type edge it does not, and steps with two carried
    # context ends that both hold an embedding of the rule off the match.
    step, kinds = rewrite._step, Counter()

    def counted_step(g, redex, fresh_base):
        types, carried, mv = redex.rule.lhs.ptype.edges, redex.rule.carried, redex.decomposition._mv
        kinds.update({left in carried for left in redex.h_l.values()
                      if CONTEXT in types[left]})
        ends = {x for j, left in redex.h_l.items() if left in carried
                for x in g.edges[j][::2] if x not in mv}
        kinds["two held carried ends"] += len(ends) > 1 and len(ends & {
            x for r in find_redexes(g, redex.rule)[0] for x in r.embedding.vmap.values()
            if mv.isdisjoint(r.embedding.vmap.values())}) > 1
        return step(g, redex, fresh_base)

    @PROPERTY
    @given(st.randoms(use_true_random=True), st.sampled_from((None, 2, 8)), st.integers(0, 9))
    def kept_sets_equal_a_fresh_search(rng, cap, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_map_cap(monkeypatch, cap)
            monkeypatch.setattr(rewrite, "_step", counted_step)
            draw = lambda: (random_deterministic_rule if rng.random() < 0.5  # noqa: E731
                            else random_quasi_rule)(rng)
            drawn = []
            for _ in range(6):
                host = random_graph(rng, list(range(rng.randint(1, 6))), 9)
                drawn.append((host, {f"r{k}": draw() for k in range(rng.randint(1, 3))}))
            for _ in range(2):
                rule = draw()
                drawn.append((pattern_host(rng, rule, rng.randint(3, 4)), {"r": rule}))
            for host, system in drawn:
                for strategy in ("first", "random"):
                    _, reads = checked_normalize(monkeypatch, host, system, strategy=strategy,
                                                 seed=seed, max_steps=6)
                    assert reads > 0

    kept_sets_equal_a_fresh_search()
    assert kinds[True] > 20 and kinds[False] > 100 and kinds["two held carried ends"] > 3, kinds


class TestAnchoredSearch:
    def test_lists_the_embeddings_that_meet_the_anchors(self):
        rng = random.Random(3)
        for i in range(300):
            host = random_graph(rng, list(range(rng.randint(1, 6))), 9)
            rule = random_deterministic_rule(rng) if i % 2 else random_quasi_rule(rng)
            anchors = set(rng.sample(range(8), rng.randint(0, 3)))
            pattern, ptype = rule.lhs.pattern, rule.lhs.ptype
            for t in (None, ptype):
                assert find_pattern_embeddings(host, pattern, t, anchors) == [
                    emb for emb in find_pattern_embeddings(host, pattern, t)
                    if not anchors.isdisjoint(emb.image_vertices())]
            full, _ = find_redexes(host, rule)
            anchored, _ = anchored_redexes(host, rule, anchors)
            assert_same_redexes(anchored, [r for r in full if not anchors.isdisjoint(
                r.decomposition.match.vertices)])

    def test_disconnected_and_empty_patterns(self):
        host = Graph.from_triples(range(4), [(0, "a", 0), (1, "a", 1), (2, "b", 3)])
        two_loops = Graph([0, 1], [(0, 0, "a", 0), (1, 1, "a", 1)])
        found = find_pattern_embeddings(host, two_loops, anchors={1})
        assert sorted(sorted(e.vmap.items()) for e in found) == [[(0, 0), (1, 1)],
                                                                 [(0, 1), (1, 0)]]
        assert find_pattern_embeddings(host, EMPTY_GRAPH) != []
        assert find_pattern_embeddings(host, EMPTY_GRAPH, anchors={0, 1, 2, 3}) == []

    def test_matchers_are_built_once_per_scheme(self, monkeypatch):
        # Counted: a left scheme's matcher is built on its first search, and
        # repeated searches, anchored or not, build neither it nor a plan.
        host = next(g for g, _, _ in deadlock_workload_nets()
                    if find_redexes(g, deadlock_rules()["grant"])[0])
        init, built = matching._Matcher.__init__, []

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(matching._Matcher, "__init__", counted)
        rule = deadlock_rules()["grant"]
        pattern, ptype = rule.lhs.pattern, rule.lhs.ptype
        everywhere = find_pattern_embeddings(host, pattern, ptype)
        anchors = set(sorted(host.vertices)[::3]) | {everywhere[-1].vmap[0]}
        first = find_pattern_embeddings(host, pattern, ptype, anchors)
        assert first and built == [ptype._matcher]
        plans = dict(ptype._matcher.plans)
        assert plans
        for _ in range(3):
            assert find_pattern_embeddings(host, pattern, ptype, anchors) == first
            assert find_pattern_embeddings(host, pattern, ptype) == everywhere
        assert built == [ptype._matcher]
        assert ptype._matcher.plans.keys() == plans.keys()
        assert all(ptype._matcher.plans[root] is plan for root, plan in plans.items())
        assert first == [e for e in everywhere if not anchors.isdisjoint(e.image_vertices())]
        # A search without the type builds a matcher of its own once per
        # pattern, kept on the pattern with its plans.
        for _ in range(3):
            assert find_pattern_embeddings(host, pattern, anchors=anchors) == previous_embeddings(
                host, pattern, None, anchors)
            assert find_pattern_embeddings(host, pattern) == previous_embeddings(host, pattern)
        assert len(built) == 2 and built[1] is not ptype._matcher
        assert pattern._matchers == {None: built[1]}


def test_no_search_when_no_touched_vertex_is_left(monkeypatch):
    # Counted: a ``destroy`` step touches only the vertex it removes, so the
    # next reads of every rule drop that vertex's entries and search nothing;
    # each read still equals a fresh search (``checked_normalize``), and the
    # searches are counted in a second, unchecked run.
    nets = deadlock_workload_nets()
    net = max((g for g, _, _ in nets[::9]), key=lambda g: len(g.vertices))
    result, reads = checked_normalize(monkeypatch, net, deadlock_rules())
    assert result == outcome(reference_normalize, net, deadlock_rules())
    search, calls = matching._redex_entries, []

    def counted(host, rule, cap, anchors=None):
        calls.append(anchors)
        return search(host, rule, cap, anchors)

    monkeypatch.setattr(matching, "_redex_entries", counted)
    assert outcome(normalize, net, deadlock_rules()) == result
    destroys = sum(record.rule == "destroy" for record in result[2])
    assert destroys > 0
    assert all(anchors is None or anchors for anchors in calls)
    assert len(calls) <= reads - destroys


def test_ring_decompositions_per_step_do_not_grow(monkeypatch):
    # Counted, not timed: after the first full search, a step reads the
    # patch of only the embeddings around its own rewrite, at any ring size.
    scaling = perfbench_module("scaling")
    patch_edges = matching.patch_edges
    per_size = {}
    for n in (50, 200):
        host, rule = scaling.ring(graph, rules, n)
        counts = []

        def counted(*args):
            counts.append(1)
            return patch_edges(*args)

        with monkeypatch.context() as m:
            m.setattr(matching, "patch_edges", counted)
            _, trace = normalize(host, {"drop-loop": rule})
        assert len(trace) == n
        per_size[n] = (len(counts) - n) / n
    assert per_size[50] == per_size[200] <= 2


def test_ring_steps_build_no_checked_graph(monkeypatch):
    # Counted, not timed: a step edits the one draft that ``normalize``
    # keeps, so no step goes through the checked constructor, at any size.
    scaling = perfbench_module("scaling")
    init = Graph.__init__
    per_size = {}
    for n in (50, 200):
        host, rule = scaling.ring(graph, rules, n)
        counts = []

        def counted(self, *args, **kwargs):
            counts.append(1)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Graph, "__init__", counted)
            _, trace = normalize(host, {"drop-loop": rule})
        assert len(trace) == n
        per_size[n] = len(counts) / n
    assert per_size[50] == per_size[200] == 0


def test_chain_steps_never_rescan_the_ids(monkeypatch):
    # Counted: ``normalize``'s draft keeps its ids on a stack, so a step that
    # removes the largest id costs no scan of every id, and the result is
    # handed out with a frozen vertex set.
    draft, drafts, max_id, lost, rescans = Graph._draft, [], Graph.max_id, [], []

    def counted_draft(self):
        drafts.append(g := draft(self))
        return g

    def counted_max_id(self):
        if self._max is None and any(self is g for g in drafts):
            (lost if self._ids is not None else rescans).append(self)
        return max_id(self)

    monkeypatch.setattr(Graph, "_draft", counted_draft)
    monkeypatch.setattr(Graph, "max_id", counted_max_id)
    report = detect_deadlock(perfbench_module("scaling").chain(graph, 80))
    assert report.normal_form.is_empty() and len(drafts) == 1
    assert len(lost) == 79 and rescans == []
    assert isinstance(report.normal_form.vertices, frozenset)


def test_ring_normalize_builds_its_index_once(monkeypatch):
    # Counted: the first search builds the index of ``normalize``'s draft,
    # and every later step edits that index in place.
    host, rule = perfbench_module("scaling").ring(graph, rules, 200)
    build, built = Graph._indexes, []

    def counted(self):
        if self._index is None:
            built.append(self)
        return build(self)

    monkeypatch.setattr(Graph, "_indexes", counted)
    nf, trace = normalize(host, {"drop-loop": rule})
    assert len(trace) == 200
    assert sum(g is nf for g in built) == 1 and host._index is None
