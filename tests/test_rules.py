"""Rule model: adherence, validation, shorthand expansion, imports."""

import itertools
import random
import time
from collections import Counter

import pytest

from fixtures import (
    copy_vertex_rule,
    delete_rule,
    duplicate_rule,
    invert_pull_rule,
    parallel_drop_rule,
    parallel_edge_host,
    random_deterministic_rule,
    random_quasi_rule,
    redirect_rule,
    renamed_rule_copy,
    shallow_recursion,
    three_spoke_rule,
)
from pgr.exceptions import (
    BadArity,
    DanglingRhsName,
    InvalidRule,
    NotAMorphism,
    PositionMismatch,
    SharedName,
)
from pgr.graph import (
    EMPTY_GRAPH,
    Graph,
    Renaming,
    decompose_at,
    rename_graph,
)
from pgr.matching import find_pattern_embeddings, find_redexes
from pgr.rules import (
    CONTEXT,
    Morphism,
    PatchType,
    QuasiRule,
    RuleSketch,
    Scheme,
    adherence_ok,
    build_rule,
    enumerate_adherence_maps,
    expand_black_node_shorthand,
    expand_name_shorthand,
    import_dpo,
    import_spo,
    match_positions,
    patch_shapes,
    rules_isomorphic,
    validate_quasi_rule,
)
from pgr.systems import dijkstra_scholten_system, elementary_rules, waitfor_system


def single_vertex_decomposition():
    """Context, patch and match: one match vertex 5, one context vertex 9,
    assorted patch edges."""
    c = Graph([9])
    m = Graph([5])
    j = Graph([5, 9], [(20, 9, "x", 5), (21, 5, "y", 9), (22, 5, "z", 5)])
    return c, j, m


# The match vertex 5 of ``single_vertex_decomposition`` at its own position.
AT = {5: 5}


def one_edge(j, e):
    """The patch ``j`` cut down to edge ``e``."""
    s, lab, t = j.edges[e]
    return Graph({s, t}, {e: (s, lab, t)})


class TestEdgeAdheres:
    """Whether one patch edge adheres, read through the match positions."""

    def test_loop_never_adheres_to_context_edge(self):
        _, j, m = single_vertex_decomposition()
        t = PatchType(m, {0: (CONTEXT, 5)})
        assert patch_shapes(j, [22], AT) == [(5, 5)]
        assert not adherence_ok(one_edge(j, 22), t, AT, {22: 0})

    def test_incoming_context_edge(self):
        _, j, m = single_vertex_decomposition()
        t = PatchType(m, {0: (CONTEXT, 5)})
        assert patch_shapes(j, [20], AT) == [(CONTEXT, 5)]
        assert adherence_ok(one_edge(j, 20), t, AT, {20: 0})
        assert not adherence_ok(one_edge(j, 21), t, AT, {21: 0})

    def test_in_match_edge(self):
        _, j, m = single_vertex_decomposition()
        t = PatchType(m, {0: (5, 5), 1: (5, CONTEXT)})
        assert adherence_ok(one_edge(j, 22), t, AT, {22: 0})
        assert not adherence_ok(one_edge(j, 22), t, AT, {22: 1})

    def test_shape_is_read_in_pattern_coordinates(self):
        _, j, _ = single_vertex_decomposition()
        at = match_positions(Graph([0]), Renaming({0: 5, 1: 9}))
        assert at == {5: 0}  # built from the pattern, not the whole map
        assert patch_shapes(j, [20, 22], at) == [(CONTEXT, 0), (0, 0)]
        t = PatchType(Graph([0]), {0: (CONTEXT, 0), 1: (0, CONTEXT), 2: (0, 0)})
        assert adherence_ok(j, t, at, {20: 0, 21: 1, 22: 2})
        assert not adherence_ok(j, t, at, {20: 0, 21: 1})


class TestEnumerateAdherenceMaps:
    def test_simple_type_unique_map(self):
        _, j, m = single_vertex_decomposition()
        t = PatchType(m, {0: (CONTEXT, 5), 1: (5, CONTEXT), 2: (5, 5)})
        maps, truncated = enumerate_adherence_maps(j, t, AT)
        assert not truncated
        assert maps == [{20: 0, 21: 1, 22: 2}]

    def test_empty_patch_has_one_empty_map(self):
        t = PatchType(Graph([5]), {0: (CONTEXT, 5)})
        maps, truncated = enumerate_adherence_maps(EMPTY_GRAPH, t, AT)
        assert maps == [{}]
        assert not truncated

    def test_non_adherent_patch_yields_nothing(self):
        _, j, m = single_vertex_decomposition()
        t = PatchType(m, {0: (CONTEXT, 5)})
        maps, truncated = enumerate_adherence_maps(j, t, AT)
        assert maps == []
        assert not truncated

    @pytest.mark.parametrize("n", range(5))
    def test_two_parallel_placeholders_give_two_to_the_n(self, n):
        host = parallel_edge_host(n)
        rule = parallel_drop_rule()
        emb = [e for e in find_pattern_embeddings(host, rule.lhs.pattern)
               if e.vmap[0] == 0][0]
        d = decompose_at(host, emb.image_vertices(), emb.image_edges())
        maps, truncated = enumerate_adherence_maps(
            d.patch, rule.lhs.ptype, match_positions(rule.lhs.pattern, emb))
        assert len(maps) == 2 ** n
        assert not truncated

    def test_cap_truncates_with_flag(self, monkeypatch):
        monkeypatch.setenv("PGR_MAX_MAPS", "5")
        host = parallel_edge_host(4)
        rule = parallel_drop_rule()
        emb = [e for e in find_pattern_embeddings(host, rule.lhs.pattern)
               if e.vmap[0] == 0][0]
        d = decompose_at(host, emb.image_vertices(), emb.image_edges())
        maps, truncated = enumerate_adherence_maps(
            d.patch, rule.lhs.ptype, match_positions(rule.lhs.pattern, emb))
        assert len(maps) == 5
        assert truncated

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("PGR_MAX_MAPS", "3")
        host = parallel_edge_host(3)
        rule = parallel_drop_rule()
        emb = [e for e in find_pattern_embeddings(host, rule.lhs.pattern)
               if e.vmap[0] == 0][0]
        d = decompose_at(host, emb.image_vertices(), emb.image_edges())
        maps, truncated = enumerate_adherence_maps(
            d.patch, rule.lhs.ptype, match_positions(rule.lhs.pattern, emb))
        assert len(maps) == 3
        assert truncated


def uncarried(rule):
    """The end pairs of the left type edges that ``rule`` does not carry."""
    return sorted(map(str, (rule.lhs.ptype.edges[e]
                            for e in rule.lhs.ptype.edges.keys() - rule.carried)))


class TestCarried:
    def test_bundled_rules(self):
        wait_for = waitfor_system()
        assert len(wait_for["grant"].carried) == 4 and uncarried(wait_for["grant"]) == []
        assert wait_for["resolve"].carried == frozenset()
        assert uncarried(wait_for["resolve"]) == ["('ctx', 0)", "(0, 'ctx')"]
        # The clone rules keep every placeholder in place or move it to the
        # clone; only clone-2's request out-edges are duplicated, to the copy.
        assert len(wait_for["clone-1"].carried) == 16 and uncarried(wait_for["clone-1"]) == []
        assert uncarried(wait_for["clone-2"]) == ["(4, 'ctx')"]
        for name, rule in dijkstra_scholten_system().items():
            assert rule.carried and uncarried(rule) == [], name

    def test_hand_made_rules(self):
        # Dropped (no right image), duplicated (two CONTEXT images), flipped
        # ((CTX, x) to (y, CTX)) or moved inside the pattern: not carried.
        # Kept at the same index, on another vertex or beside an image
        # inside the pattern, or within the pattern: carried.
        assert uncarried(delete_rule()) == ["('ctx', 0)", "(0, 'ctx')"]
        assert uncarried(duplicate_rule()) == ["('ctx', 0)", "(0, 'ctx')"]
        assert uncarried(invert_pull_rule()) == ["('ctx', 0)"]
        assert uncarried(copy_vertex_rule()) == ["('ctx', 0)", "(0, 'ctx')"]
        assert uncarried(redirect_rule()) == [] and len(redirect_rule().carried) == 2
        assert uncarried(three_spoke_rule()) == ["('ctx', 1)", "('ctx', 4)", "(4, 'ctx')"]
        flip_out = build_rule(Graph([0]), {"out": (0, CONTEXT)}, Graph([10]),
                              [(CONTEXT, 10, "out")])
        assert flip_out.carried == frozenset()


class TestValidateQuasiRule:
    def test_figure_rules_are_valid_and_deterministic(self):
        for rule in (redirect_rule(), duplicate_rule(), invert_pull_rule(),
                     copy_vertex_rule()):
            assert validate_quasi_rule(rule) == []
            assert rule.deterministic

    def test_context_preservation_violation(self):
        lhs = Graph([0])
        rhs = Graph([10])
        with pytest.raises(InvalidRule) as exc:
            QuasiRule(
                Scheme(lhs, PatchType(lhs, {1: (0, 0)})),
                Scheme(rhs, PatchType(rhs, {2: (CONTEXT, 10)})),
                {2: 1},
            )
        assert any("context" in v for v in exc.value.violations)
        with pytest.raises(InvalidRule):
            build_rule(lhs, {"k": (0, 0)}, rhs, [(CONTEXT, 10, "k")])

    def test_split_rule_is_quasi_but_valid(self):
        split = elementary_rules()["split"]
        assert validate_quasi_rule(split) == []
        assert not split.deterministic

    def test_partial_trace_is_flagged(self):
        lhs = Graph([0])
        rhs = Graph([10])
        with pytest.raises(InvalidRule) as exc:
            QuasiRule(
                Scheme(lhs, PatchType(lhs, {1: (CONTEXT, 0)})),
                Scheme(rhs, PatchType(rhs, {2: (CONTEXT, 10)})),
                {},
            )
        assert any("total" in v for v in exc.value.violations)


class TestNameShorthand:
    def merge_sketch(self):
        return RuleSketch(
            Graph([0, 1], [(0, 0, "a", 1)]),
            Graph([10]),
            lhs_names={0: ("x",), 1: ("y",)},
            rhs_names={10: ("x", "y")},
        )

    def test_merge_expansion_counts(self):
        rule = expand_name_shorthand(self.merge_sketch())
        assert len(rule.lhs.ptype.edges) == 8
        assert len(rule.rhs.ptype.edges) == 8
        assert validate_quasi_rule(rule) == []
        assert rule.deterministic

    def test_merge_expansion_matches_handwritten(self):
        rule = expand_name_shorthand(self.merge_sketch())
        assert rules_isomorphic(rule, elementary_rules()["merge"]) is not None

    def test_copy_with_forbidden_cross_edges(self):
        sketch = RuleSketch(
            Graph([0]),
            Graph([10, 11]),
            lhs_names={0: ("x",)},
            rhs_names={10: ("x",), 11: ("x",)},
            rhs_forbids=frozenset({(10, 11, "x", "x"), (11, 10, "x", "x")}),
        )
        rule = expand_name_shorthand(sketch)
        assert rules_isomorphic(rule, elementary_rules()["copy"]) is not None

    def test_split_abbreviation(self):
        sketch = RuleSketch(
            Graph([0]),
            Graph([10, 11]),
            lhs_names={0: ("x", "y")},
            rhs_names={10: ("x",), 11: ("y",)},
            lhs_forbids=frozenset({(0, 0, "x", "y"), (0, 0, "y", "x")}),
            rhs_forbids=frozenset({(10, 11, "x", "y"), (11, 10, "y", "x")}),
        )
        rule = expand_name_shorthand(sketch)
        assert not rule.deterministic
        assert rules_isomorphic(rule, elementary_rules()["split"]) is not None

    def test_no_names_no_type_edges(self):
        rule = expand_name_shorthand(RuleSketch(Graph([0]), Graph([10])))
        assert rule.lhs.ptype.edges == {}
        assert rule.rhs.ptype.edges == {}

    def test_shared_name_rejected(self):
        sketch = RuleSketch(Graph([0, 1]), Graph([10]),
                            lhs_names={0: ("x",), 1: ("x",)},
                            rhs_names={10: ("x",)})
        with pytest.raises(SharedName):
            expand_name_shorthand(sketch)

    def test_dangling_rhs_name_rejected(self):
        sketch = RuleSketch(Graph([0]), Graph([10]),
                            lhs_names={0: ("x",)},
                            rhs_names={10: ("z",)})
        with pytest.raises(DanglingRhsName):
            expand_name_shorthand(sketch)

    def test_determinism_iff_at_most_one_name_per_left_node(self):
        one = expand_name_shorthand(RuleSketch(
            Graph([0]), Graph([10]),
            lhs_names={0: ("x",)}, rhs_names={10: ("x",)}))
        two = expand_name_shorthand(RuleSketch(
            Graph([0]), Graph([10]),
            lhs_names={0: ("x", "y")}, rhs_names={10: ("x",)}))
        assert one.deterministic
        assert not two.deterministic

    def test_forbidding_non_implicit_edge_warns(self):
        sketch = RuleSketch(Graph([0]), Graph([10]),
                            lhs_names={0: ("x",)}, rhs_names={10: ("x",)},
                            lhs_forbids=frozenset({(0, 0, "x", "q")}))
        with pytest.warns(UserWarning):
            expand_name_shorthand(sketch)


class TestBlackNodeShorthand:
    def example_sketch(self):
        # Two black vertices, one plain vertex, one explicit placeholder.
        return RuleSketch(
            Graph([1, 2, 3], [(0, 1, "a", 1), (1, 1, "b", 2)]),
            Graph([1, 2, 3]),
            black=frozenset({1, 3}),
            lhs_types={"k1": (3, 2)},
            rhs_types=[(1, 1, "k1"), (3, 2, "k1")],
        )

    def test_expansion_counts(self):
        rule = expand_black_node_shorthand(self.example_sketch())
        assert len(rule.lhs.ptype.edges) == 9   # 1 explicit + 8 generated
        assert len(rule.rhs.ptype.edges) == 10  # 2 explicit + 8 copies
        assert validate_quasi_rule(rule) == []
        assert rule.deterministic

    def test_generated_pairs(self):
        rule = expand_black_node_shorthand(self.example_sketch())
        pairs = set(rule.lhs.ptype.edges.values())
        assert pairs == {(3, 2), (1, 1), (1, 3), (3, 1), (3, 3),
                         (CONTEXT, 1), (1, CONTEXT), (CONTEXT, 3), (3, CONTEXT)}

    def test_zero_black_nodes_is_identity(self):
        sketch = RuleSketch(Graph([0], [(0, 0, "a", 0)]), Graph([0]),
                            lhs_types={"k": (CONTEXT, 0)},
                            rhs_types=[(CONTEXT, 0, "k")])
        rule = expand_black_node_shorthand(sketch)
        assert len(rule.lhs.ptype.edges) == 1
        assert len(rule.rhs.ptype.edges) == 1

    def test_position_mismatch(self):
        sketch = RuleSketch(Graph([1]), Graph([2]), black=frozenset({1}))
        with pytest.raises(PositionMismatch):
            expand_black_node_shorthand(sketch)


class TestRulesIsomorphic:
    def test_rule_vs_itself(self):
        rule = redirect_rule()
        w = rules_isomorphic(rule, rule)
        assert w is not None
        assert all(w.vmap[v] == v for v in w.vmap)

    def test_rule_vs_renamed_copy(self):
        lhs = Graph([3], [(7, 3, "a", 3)])
        rhs = Graph([4, 5], [(8, 4, "b", 4)])
        copy = build_rule(lhs, {"in": (CONTEXT, 3), "out": (3, CONTEXT)},
                          rhs, [(CONTEXT, 4, "in"), (5, CONTEXT, "out")])
        assert rules_isomorphic(redirect_rule(), copy) is not None

    def test_different_trace_multiplicities(self):
        assert rules_isomorphic(redirect_rule(), duplicate_rule()) is None

    def test_random_renamed_copies(self):
        import random

        from fixtures import random_deterministic_rule, renamed_rule_copy
        from pgr.graph import rename_graph

        rng = random.Random(31337)
        for _ in range(15):
            rule = random_deterministic_rule(rng)
            copy = renamed_rule_copy(rule, rng)
            w = rules_isomorphic(rule, copy)
            assert w is not None
            assert rename_graph(rule.lhs.pattern, w) == copy.lhs.pattern
            assert rename_graph(rule.rhs.pattern, w) == copy.rhs.pattern
            for e, t in rule.trace.items():
                assert copy.trace[w.emap[e]] == w.emap[t]

    def test_trace_commutation_is_required(self):
        lhs = Graph([0])
        base = {"p": (CONTEXT, 0), "q": (0, CONTEXT)}
        keep_in = build_rule(lhs, base, Graph([10]), [(CONTEXT, 10, "p")])
        keep_out = build_rule(lhs, base, Graph([10]), [(10, CONTEXT, "q")])
        assert rules_isomorphic(keep_in, keep_out) is None


def brute_force_rules_isomorphic(r1, r2) -> bool:
    """Try every vertex bijection, then every bijection of the left and of
    the right type edges; CONTEXT stays fixed."""
    v1 = sorted(r1.lhs.pattern.vertices | r1.rhs.pattern.vertices)
    v2 = sorted(r2.lhs.pattern.vertices | r2.rhs.pattern.vertices)
    l1, l2 = sorted(r1.lhs.ptype.edges), sorted(r2.lhs.ptype.edges)
    t1, t2 = sorted(r1.rhs.ptype.edges), sorted(r2.rhs.ptype.edges)
    if (len(v1), len(l1), len(t1)) != (len(v2), len(l2), len(t2)):
        return False
    sides = ((r1.lhs, r2.lhs), (r1.rhs, r2.rhs))
    for image in itertools.permutations(v2):
        vmap = dict(zip(v1, image))
        if any({vmap[v] for v in a.pattern.vertices} != b.pattern.vertices
               or Counter((vmap[s], lab, vmap[t]) for s, lab, t in a.pattern.edges.values())
               != Counter(b.pattern.edges.values()) for a, b in sides):
            continue

        def move(ep):
            return CONTEXT if ep == CONTEXT else vmap[ep]

        def carries(a, b, emap):
            return all(b.ptype.edges[emap[e]] == (move(s), move(t))
                       for e, (s, t) in a.ptype.edges.items())

        for left in itertools.permutations(l2):
            lmap = dict(zip(l1, left))
            if not carries(r1.lhs, r2.lhs, lmap):
                continue
            for right in itertools.permutations(t2):
                rmap = dict(zip(t1, right))
                if carries(r1.rhs, r2.rhs, rmap) and all(
                        r2.trace[rmap[e]] == lmap[img] for e, img in r1.trace.items()):
                    return True
    return False


def assert_rule_witness(r1, r2, w):
    """``w`` carries patterns, patch types and traces of r1 onto r2's."""
    for a, b in ((r1.lhs, r2.lhs), (r1.rhs, r2.rhs)):
        assert rename_graph(a.pattern, w) == b.pattern
        moved = a.ptype.renamed(w)
        assert {w.emap[e]: pair for e, pair in moved.edges.items()} == b.ptype.edges
    assert {w.emap[e]: w.emap[img] for e, img in r1.trace.items()} == r2.trace


def parallel_placeholder_rule(multiplicities):
    """k left type edges ctx -> 0; left edge i has multiplicities[i] right
    copies ctx -> 10."""
    keys = {f"k{i}": (CONTEXT, 0) for i in range(len(multiplicities))}
    rhs_types = [(CONTEXT, 10, f"k{i}")
                 for i, m in enumerate(multiplicities) for _ in range(m)]
    return build_rule(Graph([0]), keys, Graph([10]), rhs_types)


def path_rule(n):
    """Both patterns are n-vertex a-paths; context edges enter the left head
    and leave its tail, and the right pattern keeps only the incoming ones."""
    lhs = Graph.from_triples(range(n), [(i, "a", i + 1) for i in range(n - 1)])
    rhs = Graph(range(n, 2 * n), [(n + i, n + i, "a", n + i + 1) for i in range(n - 1)])
    return build_rule(lhs, {"in": (CONTEXT, 0), "out": (n - 1, CONTEXT)},
                      rhs, [(CONTEXT, n, "in")])


def mutated_rule_copy(rule, rng):
    """A renamed copy with one trace entry re-pointed or, failing that, one
    type-edge endpoint moved; the result may still be isomorphic.  Both keep
    the rule valid: a right type edge at the context traces only to a left
    one at the context, and a left type edge keeps its context end."""
    types = [dict(rule.lhs.ptype.edges), dict(rule.rhs.ptype.edges)]
    trace = dict(rule.trace)
    e = rng.choice(sorted(trace)) if trace and len(types[0]) > 1 else None
    targets = [] if e is None else [
        t for t in sorted(types[0])
        if t != trace[e] and (CONTEXT not in types[1][e] or CONTEXT in types[0][t])]
    if targets:
        trace[e] = rng.choice(targets)
    else:
        side = 0 if types[0] and (not types[1] or rng.random() < 0.5) else 1
        pattern = (rule.lhs, rule.rhs)[side].pattern
        e = rng.choice(sorted(types[side]))
        s, t = types[side][e]
        moved = rng.choice(sorted(pattern.vertices))
        keep_s = side == 0 and s == CONTEXT
        types[side][e] = ((moved, t) if t == CONTEXT or not keep_s and rng.random() < 0.5
                          else (s, moved))
    schemes = [Scheme(x.pattern, PatchType(x.pattern, te))
               for x, te in zip((rule.lhs, rule.rhs), types)]
    return renamed_rule_copy(QuasiRule(*schemes, trace), rng)


class TestRulesIsomorphicOracle:
    def test_agrees_with_brute_force(self):
        rng = random.Random(2024)
        verdicts = Counter()
        for i in range(450):
            make = random_deterministic_rule if i % 2 else random_quasi_rule
            rule = make(rng)
            if i % 3 == 0:
                other = renamed_rule_copy(rule, rng)
            elif i % 3 == 1 and rule.lhs.ptype.edges:
                other = mutated_rule_copy(rule, rng)
            else:
                other = make(rng)
            w = rules_isomorphic(rule, other)
            assert (w is not None) == brute_force_rules_isomorphic(rule, other)
            if w is not None:
                assert_rule_witness(rule, other, w)
            verdicts[w is not None] += 1
        # Both verdicts occur often enough for the agreement to mean something.
        assert verdicts[True] >= 150 and verdicts[False] >= 150

    def test_shared_vertex_keeps_its_sides_apart(self):
        # Vertex 0 lies on both sides; only the side of its a-loop differs.
        left = build_rule(Graph([0], [(0, 0, "a", 0)]), {}, Graph([0]), [])
        right = build_rule(Graph([0]), {}, Graph([0], [(1, 0, "a", 0)]), [])
        assert not brute_force_rules_isomorphic(left, right)
        assert rules_isomorphic(left, right) is None

    def test_large_rules_need_no_recursion(self):
        rule = path_rule(300)
        copy = renamed_rule_copy(rule, random.Random(5))
        with shallow_recursion():
            w = rules_isomorphic(rule, copy)
        assert w is not None
        assert_rule_witness(rule, copy, w)

    def test_parallel_placeholders(self):
        # Eight interchangeable left type edges: the verdict depends only on
        # the multiset of trace multiplicities.
        base = parallel_placeholder_rule([2, 1, 1, 1, 1, 1, 1, 0])
        same = parallel_placeholder_rule([0, 1, 1, 1, 2, 1, 1, 1])
        other = parallel_placeholder_rule([2, 2, 1, 1, 1, 1, 0, 0])
        start = time.perf_counter()
        w = rules_isomorphic(base, same)
        assert w is not None
        assert_rule_witness(base, same, w)
        assert rules_isomorphic(base, other) is None
        assert time.perf_counter() - start < 10


class TestImports:
    def test_identity_interface_preserves_everything(self):
        g = Graph([5])
        rule = import_dpo(g, g, g, Morphism.identity(g), Morphism.identity(g))
        assert rule.deterministic
        # One name generates exactly in/out/loop placeholders on both sides.
        assert len(rule.lhs.ptype.edges) == 3
        assert len(rule.rhs.ptype.edges) == 3
        host = Graph.from_triples([1, 2], [(1, "a", 2), (2, "b", 1), (1, "c", 1)])
        redexes, _ = find_redexes(host, rule)
        assert len(redexes) == 2  # either vertex; patch rides along

    def test_non_injective_left_leg_gives_quasi_split(self):
        # Splitting one vertex across two interface copies.  The import also
        # allows a patch loop to land *between* the copies (its endpoints
        # detach independently), so it carries two extra placeholders per
        # side compared to the plain split rule; on loop-free hosts the two
        # rules generate exactly the same steps.
        from pgr.graph import canonical_form
        from pgr.rewrite import apply_at

        l = Graph([0])
        k = Graph([1, 2])
        r = Graph([10, 11])
        phi = Morphism({1: 0, 2: 0}, {})
        psi = Morphism({1: 10, 2: 11}, {})
        rule = import_dpo(l, k, r, phi, psi, injective_phi=False)
        assert not rule.deterministic
        split = elementary_rules()["split"]
        assert len(rule.lhs.ptype.edges) == len(split.lhs.ptype.edges) + 2
        host = Graph.from_triples([1, 2, 3], [(2, "a", 1), (1, "b", 3)])

        def step_classes(rl):
            redexes, _ = find_redexes(host, rl)
            return {canonical_form(apply_at(host, rx)[0]) for rx in redexes}

        assert step_classes(rule) == step_classes(split)

    def test_declared_injective_but_not(self):
        l = Graph([0])
        k = Graph([1, 2])
        phi = Morphism({1: 0, 2: 0}, {})
        psi = Morphism({1: 0, 2: 0}, {})
        with pytest.raises(NotAMorphism):
            import_dpo(l, k, Graph([0]), phi, psi, injective_phi=True)

    def test_not_a_morphism(self):
        l = Graph([0, 1], [(0, 0, "a", 1)])
        k = Graph([2, 3], [(1, 2, "b", 3)])
        phi = Morphism({2: 0, 3: 1}, {1: 0})  # label mismatch a vs b
        with pytest.raises(NotAMorphism):
            import_dpo(l, k, l, phi, phi)

    def dangling_setup(self):
        # Delete a vertex; the host leaves one edge dangling.
        l = Graph([0])
        k = EMPTY_GRAPH
        r = EMPTY_GRAPH
        empty = Morphism({}, {})
        host = Graph.from_triples([1, 2], [(1, "a", 2)])
        return l, k, r, empty, host

    def test_dpo_gluing_blocks_dangling_deletion(self):
        l, k, r, empty, host = self.dangling_setup()
        rule = import_dpo(l, k, r, empty, empty)
        redexes, _ = find_redexes(host, rule)
        assert redexes == []

    def test_spo_deletes_dangling_edges(self):
        from pgr.rewrite import apply_at

        l, k, r, empty, host = self.dangling_setup()
        rule = import_spo(l, k, r, empty, empty)
        redexes, _ = find_redexes(host, rule)
        assert len(redexes) == 2
        result, _ = apply_at(host, redexes[0])
        assert len(result.vertices) == 1
        assert result.edges == {}

    def test_spo_with_total_interface_matches_dpo(self):
        g = Graph([5], [(0, 5, "a", 5)])
        ident = Morphism.identity(g)
        a = import_dpo(g, g, g, ident, ident)
        b = import_spo(g, g, g, ident, ident)
        assert rules_isomorphic(a, b) is not None

    def test_injective_interface_always_deterministic(self):
        l = Graph([0, 1], [(0, 0, "a", 1)])
        k = Graph([2, 3])
        r = Graph([4, 5], [(9, 5, "b", 4)])
        phi = Morphism({2: 0, 3: 1}, {})
        psi = Morphism({2: 4, 3: 5}, {})
        rule = import_dpo(l, k, r, phi, psi)
        assert rule.deterministic
        assert validate_quasi_rule(rule) == []


class TestBadArity:
    def test_make_n_of_m_bounds(self):
        from pgr.systems import make_n_of_m_rule

        with pytest.raises(BadArity):
            make_n_of_m_rule(0, 1)
        with pytest.raises(BadArity):
            make_n_of_m_rule(3, 2)
