"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (isomorphism or equality); nothing is tolerance-based.
"""

import itertools
import random
from contextlib import contextmanager

from fixtures import (
    copy_vertex_rule,
    delete_rule,
    duplicate_rule,
    hub_host,
    hub_host_extra_loop,
    invert_pull_rule,
    parallel_drop_rule,
    parallel_edge_host,
    random_instances,
    redirect_rule,
    strict_delete_rule,
    three_spoke_expected,
    three_spoke_host,
    three_spoke_rule,
)
from pgr.formats import parse_graph, parse_rules, serialize_graph, serialize_rule
from pgr.graph import (
    EMPTY_GRAPH,
    Graph,
    canonical_form,
    decompose_at,
    find_isomorphism,
)
from pgr.matching import find_pattern_embeddings, find_redexes
from pgr.rewrite import apply_at, brute_force_step_oracle, successors
from pgr.rules import (
    CONTEXT,
    Morphism,
    PatchType,
    RuleSketch,
    build_rule,
    enumerate_adherence_maps,
    expand_black_node_shorthand,
    expand_name_shorthand,
    import_dpo,
    import_spo,
    match_positions,
    rules_isomorphic,
)
from pgr.systems import (
    WaitForNet,
    deadlock_rules,
    detect_deadlock,
    dijkstra_scholten_system,
    ds_explore,
    ds_initial_network,
    elementary_rules,
    waitfor_grammar,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_figure_fixtures():
    with criterion(1, "single-node rule applications reproduce the drawn steps"):
        host = hub_host()
        assert find_redexes(host, strict_delete_rule())[0] == []

        cases = [
            (host, delete_rule(),
             Graph.from_triples([1, 3, 10, 11], [(3, "e", 3), (10, "b", 10)])),
            (host, redirect_rule(),
             Graph.from_triples([1, 3, 10, 11],
                                [(3, "e", 3), (10, "b", 10), (1, "b", 10),
                                 (1, "c", 10), (11, "d", 3)])),
            (host, duplicate_rule(),
             Graph.from_triples([1, 3, 10, 11],
                                [(3, "e", 3), (10, "b", 10), (10, "d", 3),
                                 (11, "d", 3), (11, "d", 3)])),
            (host, invert_pull_rule(),
             Graph.from_triples([1, 3, 10, 11],
                                [(3, "e", 3), (10, "b", 10), (10, "b", 1),
                                 (10, "c", 1), (10, "d", 3), (11, "d", 10)])),
            (hub_host_extra_loop(), copy_vertex_rule(),
             Graph.from_triples([1, 3, 10, 11],
                                [(3, "e", 3),
                                 (1, "b", 10), (1, "c", 10), (10, "d", 3),
                                 (10, "f", 10),
                                 (1, "b", 11), (1, "c", 11), (11, "d", 3),
                                 (11, "f", 11)])),
        ]
        for h, rule, expected in cases:
            redexes, _ = find_redexes(h, rule)
            assert len(redexes) == 1
            result, cert = apply_at(h, redexes[0])
            assert find_isomorphism(result, expected) is not None


def test_criterion_2_four_vertex_pattern_application():
    with criterion(2, "the four-vertex pattern rule reproduces its drawn step"):
        host = three_spoke_host()
        redexes, _ = find_redexes(host, three_spoke_rule())
        assert len(redexes) == 1
        result, _ = apply_at(host, redexes[0])
        assert find_isomorphism(result, three_spoke_expected()) is not None


def test_criterion_3_unique_adherence_for_simple_types():
    with criterion(3, "simple patch types admit exactly one adherence map"):
        # Exhaustive over one- and two-vertex matches with a single context
        # vertex: every simple patch type with <= 4 placeholder edges against
        # every patch shape with <= 6 edges.  Adherence never looks at edge
        # labels, and a parallel patch edge has exactly the candidates of its
        # twin, so multiplicities multiply candidate counts: distinct endpoint
        # shapes cover the general case (spot-checked below).
        checked = adherent = 0
        for m_verts in ([0], [0, 1]):
            m_graph = Graph(m_verts)
            at = {v: v for v in m_verts}  # the match is the pattern itself
            type_pairs = [(CONTEXT, v) for v in m_verts] \
                + [(v, CONTEXT) for v in m_verts] \
                + [(u, v) for u in m_verts for v in m_verts]
            patch_pairs = [(100, v) for v in m_verts] \
                + [(v, 100) for v in m_verts] \
                + [(u, v) for u in m_verts for v in m_verts]
            for tsize in range(0, 5):
                for tsel in itertools.combinations(type_pairs, tsize):
                    ptype = PatchType(m_graph, dict(enumerate(tsel)))
                    assert ptype.is_simple()
                    for psize in range(0, 7):
                        for psel in itertools.combinations(patch_pairs, psize):
                            edges = {10 + i: (s, "a", t)
                                     for i, (s, t) in enumerate(psel)}
                            vs = {x for s, _, t in edges.values()
                                  for x in (s, t)}
                            j = Graph(vs, edges)
                            maps, _ = enumerate_adherence_maps(j, ptype, at)
                            checked += 1
                            if maps:
                                adherent += 1
                                assert len(maps) == 1

                            # Independent oracle: per-edge candidate count by
                            # the four endpoint clauses, multiplied out.
                            expected = 1
                            for s, t in psel:
                                cands = 0
                                for ts, tt in tsel:
                                    ok = True
                                    if s == 100:
                                        ok &= ts == CONTEXT
                                    else:
                                        ok &= ts == s
                                    if t == 100:
                                        ok &= tt == CONTEXT
                                    else:
                                        ok &= tt == t
                                    cands += bool(ok)
                                expected *= cands
                            assert len(maps) == expected
        assert checked == 40325 and adherent == 1724

        # Parallel edges: each copy picks candidates independently.
        m_graph = Graph([0])
        two_loops = Graph([0], {10: (0, "a", 0), 11: (0, "a", 0)})
        simple = PatchType(m_graph, {0: (0, 0)})
        assert len(enumerate_adherence_maps(two_loops, simple, {0: 0})[0]) == 1
        quasi = PatchType(m_graph, {0: (0, 0), 1: (0, 0)})
        assert len(enumerate_adherence_maps(two_loops, quasi, {0: 0})[0]) == 4


def test_criterion_4_determinism_and_oracle_agreement():
    with criterion(4, "200 random deterministic steps: stable and oracle-exact"):
        rng = random.Random(424242)
        count = 0
        for host, rule, redex in random_instances(rng, 200):
            first, _ = apply_at(host, redex)
            base = max(host.max_id(), rule.rhs.pattern.max_id()) + 1009
            second, _ = apply_at(host, redex, fresh_base=base)
            assert find_isomorphism(first, second) is not None
            assert brute_force_step_oracle(host, redex) == [canonical_form(first)]
            count += 1
        assert count == 200


def test_criterion_5_quasi_blowup():
    with criterion(5, "n parallel edges yield exactly 2^n adherence maps"):
        rule = parallel_drop_rule()
        for n in range(5):
            host = parallel_edge_host(n)
            emb = [e for e in find_pattern_embeddings(host, rule.lhs.pattern)
                   if e.vmap[0] == 0][0]
            d = decompose_at(host, emb.image_vertices(), emb.image_edges())
            maps, truncated = enumerate_adherence_maps(
                d.patch, rule.lhs.ptype, match_positions(rule.lhs.pattern, emb))
            assert not truncated
            assert len(maps) == 2 ** n


def test_criterion_6_span_import_contrast():
    with criterion(6, "interface-less deletion: blocked as DPO, destructive as SPO"):
        l = Graph([0])
        empty = Morphism({}, {})
        host = Graph.from_triples([1, 2], [(1, "a", 2)])

        dpo = import_dpo(l, EMPTY_GRAPH, EMPTY_GRAPH, empty, empty)
        assert find_redexes(host, dpo)[0] == []

        spo = import_spo(l, EMPTY_GRAPH, EMPTY_GRAPH, empty, empty)
        redexes, _ = find_redexes(host, spo)
        assert len(redexes) == 2
        result, _ = apply_at(host, redexes[0])
        assert len(result.vertices) == 1 and not result.edges


def test_criterion_7_wait_for_graphs():
    with criterion(7, "wait-for nets: grammar, termination, unique verdicts"):
        grammar = waitfor_grammar()
        seen = {canonical_form(EMPTY_GRAPH): EMPTY_GRAPH}
        frontier = [EMPTY_GRAPH]
        for _ in range(6):
            nxt = []
            for g in frontier:
                for _, s in successors(g, grammar, dedup=True)[0]:
                    key = canonical_form(s)
                    if key not in seen:
                        seen[key] = s
                        nxt.append(s)
            frontier = nxt
        assert len(seen) > 20
        for state in seen.values():
            assert WaitForNet(state).violations() == []

        # Every valid net with <= 4 processes and <= 2 requests, one
        # representative per isomorphism class.
        def family():
            nets = {}
            for k in range(5):
                procs = list(range(k))
                options = []
                for requester in procs:
                    others = [p for p in procs if p != requester]
                    for msize in range(1, len(others) + 1):
                        for tgts in itertools.combinations(others, msize):
                            for s in range(0, msize + 1):
                                options.append((requester, tgts, s))
                for nreq in (0, 1, 2):
                    for chosen in itertools.combinations(options, nreq):
                        if len({c[0] for c in chosen}) != nreq:
                            continue
                        vs = list(procs)
                        triples = []
                        nxt_id = k
                        for requester, tgts, s in chosen:
                            r = nxt_id
                            nxt_id += 1
                            vs.append(r)
                            triples.append((requester, "_", r))
                            triples.extend((r, "_", t) for t in tgts)
                            triples.append((r, "z", r))
                            triples.extend((r, "s", r) for _ in range(s))
                        g = Graph.from_triples(vs, triples)
                        nets.setdefault(canonical_form(g), g)
            return list(nets.values())

        rules = deadlock_rules()
        memo = {}

        def normal_form_classes(g):
            key = canonical_form(g)
            if key in memo:
                return memo[key]
            succ, _ = successors(g, rules, dedup=True)
            size = len(g.vertices) + len(g.edges)
            for _, s in succ:
                assert len(s.vertices) + len(s.edges) < size
            if not succ:
                result = frozenset([key])
            else:
                result = frozenset().union(
                    *[normal_form_classes(s) for _, s in succ])
            memo[key] = result
            return result

        nets = family()
        assert len(nets) > 150
        empty_key = canonical_form(EMPTY_GRAPH)
        for net in nets:
            assert WaitForNet(net).violations() == []
            classes = normal_form_classes(net)
            assert len(classes) == 1          # unique normal form
            report = detect_deadlock(WaitForNet(net))
            empty_reachable = empty_key in classes
            assert report.deadlocked == (not empty_reachable)

        cycle = Graph.from_triples(
            [0, 1, 10, 11],
            [(0, "_", 10), (10, "_", 1), (10, "z", 10), (10, "s", 10),
             (1, "_", 11), (11, "_", 0), (11, "z", 11), (11, "s", 11)])
        assert detect_deadlock(WaitForNet(cycle)).deadlocked
        chain = Graph.from_triples(
            [0, 1, 10],
            [(0, "_", 10), (10, "_", 1), (10, "z", 10), (10, "s", 10)])
        assert not detect_deadlock(WaitForNet(chain)).deadlocked


def test_criterion_8_termination_detection_safety():
    with criterion(8, "announce only fires in quiescent tree states"):
        state = ds_initial_network([(0, 1), (1, 2)], 0)
        result = ds_explore(state, max_sends_per_process=2)
        assert not result.truncated
        assert len(result.states) > 100
        assert result.announce_states
        assert result.safety_violations == []


def test_criterion_9_formats_and_shorthand():
    with criterion(9, "round-trip exactness and shorthand expansions"):
        corpus_graphs = [
            EMPTY_GRAPH,
            hub_host(),
            hub_host_extra_loop(),
            three_spoke_host(),
            three_spoke_expected(),
            parallel_edge_host(3),
            ds_initial_network([(0, 1), (1, 2)], 0).graph,
        ]
        for g in corpus_graphs:
            assert parse_graph(serialize_graph(g)) == g

        from pgr.systems import waitfor_system

        corpus_rules = {
            **waitfor_grammar(), **waitfor_system(),
            **dijkstra_scholten_system(), **elementary_rules(),
            "delete": delete_rule(), "spokes": three_spoke_rule(),
            "drop": parallel_drop_rule(),
        }
        for name, rule in corpus_rules.items():
            assert parse_rules(serialize_rule(rule, name))[0] == rule, name

        # Name shorthand: the two-vertex fuse rule expands to the full
        # placeholder square drawn for it.
        merge = expand_name_shorthand(RuleSketch(
            Graph([0, 1], [(0, 0, "a", 1)]), Graph([10]),
            lhs_names={0: ("x",), 1: ("y",)}, rhs_names={10: ("x", "y")}))
        assert rules_isomorphic(merge, elementary_rules()["merge"]) is not None

        # Forbidden-edge shorthand: vertex copy without cross edges.
        copy = expand_name_shorthand(RuleSketch(
            Graph([0]), Graph([10, 11]),
            lhs_names={0: ("x",)}, rhs_names={10: ("x",), 11: ("x",)},
            rhs_forbids=frozenset({(10, 11, "x", "x"), (11, 10, "x", "x")})))
        assert rules_isomorphic(copy, elementary_rules()["copy"]) is not None

        # Black-node shorthand: abbreviated rule equals its written-out form.
        black = expand_black_node_shorthand(RuleSketch(
            Graph([1, 2, 3], [(0, 1, "a", 1), (1, 1, "b", 2)]),
            Graph([1, 2, 3]),
            black=frozenset({1, 3}),
            lhs_types={"k1": (3, 2)},
            rhs_types=[(1, 1, "k1"), (3, 2, "k1")]))
        full_types = {
            "k1": (3, 2),
            "k2": (1, 3), "k3": (3, 1), "k4": (1, 1), "k5": (3, 3),
            "k6": (CONTEXT, 1), "k7": (1, CONTEXT),
            "k8": (CONTEXT, 3), "k9": (3, CONTEXT),
        }
        written_out = build_rule(
            Graph([1, 2, 3], [(0, 1, "a", 1), (1, 1, "b", 2)]),
            full_types,
            Graph([1, 2, 3]),
            [(1, 1, "k1"), (3, 2, "k1")]
            + [(s, t, k) for k, (s, t) in full_types.items() if k != "k1"])
        assert rules_isomorphic(black, written_out) is not None
