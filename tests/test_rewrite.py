"""Rewrite engine: step construction, verification, oracle, normalization."""

import copy
import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import (
    PROPERTY,
    assert_indexes_like_fresh,
    copy_vertex_rule,
    deadlock_workload_nets,
    delete_rule,
    ds_states,
    duplicate_rule,
    hub_host,
    hub_host_extra_loop,
    invert_pull_rule,
    parallel_drop_rule,
    parallel_edge_host,
    random_deterministic_rule,
    random_graph,
    random_instances,
    random_quasi_rule,
    redirect_rule,
    reference_apply_at,
    sample_documents,
    sender_host,
    set_map_cap,
    strict_delete_rule,
    three_spoke_expected,
    three_spoke_host,
    three_spoke_rule,
    two_fresh_nodes,
)
import pgr
from pgr import graph, matching, rewrite, systems
from pgr.exceptions import InvalidRule, StepLimitReached
from pgr.graph import (
    EMPTY_GRAPH,
    Graph,
    PatchDecomposition,
    Renaming,
    canonical_form,
    decompose_at,
    graph_union,
    isomorphic,
    rename_graph,
)
from pgr.matching import Redex, find_redexes
from pgr.rewrite import (
    StepCertificate,
    StepRecord,
    _instantiate_rhs,
    apply_at,
    brute_force_step_oracle,
    check_rule_determinism,
    construct_rhs_patch,
    normalize,
    successors,
    verify_step,
)
from pgr.rules import (
    CONTEXT,
    PatchType,
    QuasiRule,
    Scheme,
    build_rule,
    enumerate_adherence_maps,
    validate_quasi_rule,
)
from pgr.systems import (deadlock_rules, dijkstra_scholten_system, ds_initial_network,
                         waitfor_grammar)
from test_systems import grammar_reachable


def only_redex(host, rule):
    redexes, _ = find_redexes(host, rule)
    assert len(redexes) == 1
    return redexes[0]


def two_position_step():
    """A step whose pattern has two isolated vertices, of which only the
    first takes an edge from the context.  The host edge 9 -> 5 becomes a
    loop on each of the two fresh vertices."""
    rule = build_rule(Graph([0, 1]), {"in": (CONTEXT, 0), "loop": (1, 1)},
                      Graph([10, 11]), [(10, 10, "in"), (11, 11, "in")])
    host = Graph.from_triples([5, 6, 9], [(9, "x", 5)])
    redex = only_redex(host, rule)
    assert redex.embedding.vmap == {0: 5, 1: 6}
    result, cert = apply_at(host, redex)
    return host, result, cert


def tampered_left(redex, embedding=None, h_l=None):
    return Redex(redex.rule, embedding or redex.embedding, redex.decomposition,
                 h_l or redex.h_l)


def reference_rhs_patch(redex, fresh_base):
    """``construct_rhs_patch`` as it was: each new patch edge placed by a
    five-way branch on which ends of its right type edge and of that edge's
    trace image are CONTEXT."""
    rule = redex.rule
    counter = itertools.count(fresh_base)
    inst = _instantiate_rhs(rule, counter)
    t_r = rule.rhs.ptype
    patch = redex.decomposition.patch

    by_left: dict[int, list[int]] = {}
    for j in sorted(patch.edges):
        by_left.setdefault(redex.h_l[j], []).append(j)

    jp_edges = {}
    h_r = {}
    sigma = {}
    for t, (ts, tt) in sorted(t_r.edges.items()):
        left = rule.trace[t]
        lts, ltt = rule.lhs.ptype.edges[left]
        for j in by_left.get(left, ()):
            js, lab, jt = patch.edges[j]
            if CONTEXT not in (ts, tt):
                new = (inst.vmap[ts], lab, inst.vmap[tt])
            elif ts == CONTEXT and lts == CONTEXT:
                new = (js, lab, inst.vmap[tt])
            elif tt == CONTEXT and ltt == CONTEXT:
                new = (inst.vmap[ts], lab, jt)
            elif ts == CONTEXT and ltt == CONTEXT:
                new = (jt, lab, inst.vmap[tt])
            else:  # tt == CONTEXT and lts == CONTEXT
                new = (inst.vmap[ts], lab, js)
            eid = next(counter)
            jp_edges[eid] = new
            h_r[eid] = t
            sigma[eid] = j
    vertices = {s for s, _, _ in jp_edges.values()} | {t for _, _, t in jp_edges.values()}
    return inst, Graph(vertices, jp_edges), h_r, sigma


def assert_placed_like_reference(host, rule):
    """Every redex of a valid rule gets the reference's instance, patch, right
    map and sigma; returns the number of new patch edges compared."""
    assert validate_quasi_rule(rule) == []
    placed = 0
    for redex in find_redexes(host, rule)[0]:
        base = max(host.max_id(), rule.rhs.pattern.max_id()) + 1
        got = construct_rhs_patch(redex, base)
        assert got == reference_rhs_patch(redex, base), (host, rule, redex.h_l)
        placed += len(got[3])
    return placed


class TestPlacementAgainstReference:
    """One placement rule against the five-way branch it replaced, on the
    inputs of the eager-search comparison."""

    def test_random_instances(self):
        rng = random.Random(2009)
        placed = sum(assert_placed_like_reference(host, rule)
                     for host, rule, _ in random_instances(rng, 200))
        for i in range(300):
            host = random_graph(rng, list(range(rng.randint(1, 5))), 8)
            rule = random_deterministic_rule(rng) if i % 2 else random_quasi_rule(rng)
            placed += assert_placed_like_reference(host, rule)
        assert placed > 400

    def test_samples(self):
        docs = sample_documents()
        assert sum(assert_placed_like_reference(g, r) for gd in docs
                   for g in gd.graphs.values() for rd in docs for r in rd.rules.values()) > 0

    def test_deadlock_workload_nets(self):
        nets = deadlock_workload_nets()
        assert sum(assert_placed_like_reference(g, rule) for g, _, _ in nets
                   for rule in deadlock_rules().values()) > len(nets)

    def test_dijkstra_scholten_states(self):
        system = dijkstra_scholten_system()
        assert sum(assert_placed_like_reference(g, rule) for g in ds_states()
                   for rule in system.values()) > 0

    def test_grammar_walk(self):
        rules = waitfor_grammar()
        assert sum(assert_placed_like_reference(g, rule) for g in grammar_reachable(5)
                   for rule in rules.values()) > 0

    def test_invalid_rule_raises_in_both(self):
        # The right type edge reaches the context, its trace image does not:
        # the new edge would have no context end to take, so no redex of
        # the rule can reach either placement; the rule is refused when built.
        lhs, rhs = Graph([0, 1]), Graph([10])
        with pytest.raises(InvalidRule) as exc:
            QuasiRule(Scheme(lhs, PatchType(lhs, {5: (0, 1)})),
                      Scheme(rhs, PatchType(rhs, {6: (CONTEXT, 10)})), {6: 5})
        assert exc.value.violations == [
            "type edge 6 touches the context but its trace image 5 does not"]


def host_state(g):
    """Everything of ``g`` a step must leave as it was, its index lists and
    counts by value."""
    return (g.vertices, list(g.edges.items()),
            *({key: copy.copy(es) for key, es in index.items()} for index in g._indexes()))


def assert_steps_like_reference(host, rule):
    """Every redex of ``rule`` in ``host``, at the default fresh base and
    above it, gives the reference's result, edge order included, and its
    certificate, both through ``apply_at``, whose result builds no index,
    and on a draft whose index is built, which the step edits in place into
    that of a fresh build.  The host keeps its own.  Returns the number of
    steps compared."""
    steps, before = 0, host_state(host)
    for redex in find_redexes(host, rule)[0]:
        for extra in (None, 7):
            base = None if extra is None else max(host.max_id(),
                                                  rule.rhs.pattern.max_id()) + extra
            result, cert = apply_at(host, redex, base)
            expected, expected_cert = reference_apply_at(host, redex, base)
            assert result._index is None
            assert list(result.edges.items()) == list(expected.edges.items())
            assert result == expected and cert == expected_cert
            assert list(cert.j_prime.edges.items()) == list(expected_cert.j_prime.edges.items())
            assert_indexes_like_fresh(result)
            draft = host._draft()
            draft._indexes()
            assert rewrite._step(draft, redex, base) == expected_cert.rhs_instance
            assert list(draft.edges.items()) == list(expected.edges.items())
            assert_indexes_like_fresh(draft)
            steps += 1
    assert host_state(host) == before
    return steps


class TestStepAgainstReference:
    """Steps as edits of a copy of the host against ``patch_compose`` of
    C, J' and M', on the inputs of the placement comparison."""

    def test_random_instances(self):
        rng = random.Random(2011)
        steps = sum(assert_steps_like_reference(host, rule)
                    for host, rule, _ in random_instances(rng, 200))
        for _ in range(200):
            host = random_graph(rng, list(range(rng.randint(1, 5))), 8)
            steps += assert_steps_like_reference(host, random_quasi_rule(rng))
        assert steps > 600
        # Index edge cases: a b-loop and two parallel b-edges at a context
        # end whose edges the rule carries, and steps that remove the last
        # edge of a label, whose keys then leave the index and the counts.
        carried_end = Graph.from_triples([0, 1], [(0, "a", 0), (1, "b", 1), (1, "b", 0),
                                                  (1, "b", 0)])
        for host, rule, counts in ((carried_end, redirect_rule(), {"out": 3, "in": 1, "loop": 1}),
                                   (hub_host(), delete_rule(), {})):
            assert assert_steps_like_reference(host, rule) == 2
            result, _ = apply_at(host, find_redexes(host, rule)[0][0])
            assert "a" not in result.label_index()
            assert result.edge_counts(1) == {(side, lab): n for side, n in counts.items()
                                             for lab in (None, "b")}

    def test_samples(self):
        docs = sample_documents()
        assert sum(assert_steps_like_reference(g, r) for gd in docs
                   for g in gd.graphs.values() for rd in docs for r in rd.rules.values()) > 0

    def test_deadlock_workload_nets(self):
        nets = deadlock_workload_nets()
        assert sum(assert_steps_like_reference(g, rule) for g, _, _ in nets
                   for rule in deadlock_rules().values()) > len(nets)

    def test_dijkstra_scholten_states(self):
        system = dijkstra_scholten_system()
        assert sum(assert_steps_like_reference(g, rule) for g in ds_states()
                   for rule in system.values()) > 0

    def test_grammar_walk(self):
        rules = waitfor_grammar()
        assert sum(assert_steps_like_reference(g, rule) for g in grammar_reachable(5)
                   for rule in rules.values()) > 0

    def test_normal_forms_carry_fresh_indexes(self):
        for g, _, _ in deadlock_workload_nets()[::7]:
            before = host_state(g)
            nf, trace = normalize(g, deadlock_rules())
            assert host_state(g) == before and trace
            assert_indexes_like_fresh(nf)
            assert isinstance(nf.vertices, frozenset)
            assert hash(nf) == hash(Graph(nf.vertices, nf.edges))

    def test_every_step_leaves_a_fresh_index(self, monkeypatch):
        # After each step of ``normalize``, on the draft whose index its
        # searches built, and on every ``successors`` result.
        step, edited = rewrite._step, []

        def checked(g, redex, fresh_base):
            cert = step(g, redex, fresh_base)
            edited.append(g._index is not None)
            assert_indexes_like_fresh(g)
            return cert

        monkeypatch.setattr(rewrite, "_step", checked)
        nets = deadlock_workload_nets()
        for g, _, _ in nets:
            normalize(g, deadlock_rules())
        assert all(edited) and len(edited) > len(nets)
        system = dijkstra_scholten_system()
        results = [result for g in ds_states() for _, result in successors(g, system)[0]]
        assert len(results) > len(ds_states())
        for result in results:
            assert_indexes_like_fresh(result)


def step_paths(host, redex, base):
    """The vertices and edges, in edge order, of each path that builds the
    step at ``redex`` with fresh ids from ``base`` up (None: the default):
    the walk's builder, ``apply_at``, ``reference_apply_at`` and the draft
    edit of ``_step``, on a draft whose index is built; at the default base,
    also ``_derived`` under the pairing ``brute_force_step_oracle`` builds,
    if it derives one."""
    parts = lambda g: (set(g.vertices), list(g.edges.items()))  # noqa: E731
    draft = host._draft()
    draft._indexes()
    rewrite._step(draft, redex, base)
    assert_indexes_like_fresh(draft)
    paths = {"walk": parts(rewrite._successor(host, redex, base)[0]),
             "apply_at": parts(apply_at(host, redex, base)[0]),
             "reference": parts(reference_apply_at(host, redex, base)[0]),
             "draft": parts(draft)}
    derived, oracle_derived = [], rewrite._derived

    def recorded(*args):
        derived.append(out := oracle_derived(*args))
        return out

    if base is None:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(rewrite, "_derived", recorded)
            brute_force_step_oracle(host, redex)
        if derived and derived[0] is not None:
            paths["oracle"] = set(derived[0][0]), list(derived[0][1].items())
    return paths


def test_step_paths_agree_id_for_id_on_drawn_hosts():
    # The property: on drawn hosts with deterministic and quasi rules, for
    # every redex, at the default fresh base and above it, every path that
    # builds the step gives the same vertices and edges, id for id and in
    # edge order (``step_paths``).  The oracle's pairing ``_derived`` is
    # read for every deterministic redex.
    compared = Counter()

    @PROPERTY
    @given(st.randoms(use_true_random=True))
    def step_paths_agree(rng):
        drawn = [(host, rule) for host, rule, _ in random_instances(rng, 3)]
        drawn += [(random_graph(rng, list(range(rng.randint(1, 5))), 8), random_quasi_rule(rng))
                  for _ in range(3)]
        for host, rule in drawn:
            floor = max(host.max_id(), rule.rhs.pattern.max_id()) + 1
            for redex in find_redexes(host, rule)[0]:
                for base in (None, floor + rng.randint(1, 9)):
                    paths = step_paths(host, redex, base)
                    assert rule.deterministic <= ("oracle" in paths) or base is not None
                    assert all(got == paths["walk"] for got in paths.values()), paths
                    compared.update(paths.keys())

    step_paths_agree()
    assert compared["oracle"] > 300 and compared["walk"] > 600, compared


class TestConstructRhsPatch:
    def test_no_right_placeholders_empty_patch(self):
        redex = only_redex(hub_host(), delete_rule())
        _, j_prime, h_r, sigma = construct_rhs_patch(redex, fresh_base=1000)
        assert j_prime == EMPTY_GRAPH
        assert h_r == {}
        assert sigma == {}

    def test_duplication_counts(self):
        redex = only_redex(hub_host(), duplicate_rule())
        _, j_prime, h_r, sigma = construct_rhs_patch(redex, fresh_base=1000)
        # One outgoing host edge, three right placeholders tracing it.
        assert len(j_prime.edges) == 3
        assert sorted(sigma.values()) == [3, 3, 3]
        labels = [j_prime.label(e) for e in j_prime.edges]
        assert labels == ["d", "d", "d"]

    def test_inversion_flips_endpoints(self):
        redex = only_redex(hub_host(), invert_pull_rule())
        inst, j_prime, h_r, sigma = construct_rhs_patch(redex, fresh_base=1000)
        inverted = [(s, lab, t) for s, lab, t in j_prime.edges.values()
                    if t == 1]  # edges back into the old source vertex
        assert sorted(lab for _, lab, _ in inverted) == ["b", "c"]
        upper = inst.vmap[10]
        assert all(s == upper for s, _, _ in inverted)

    def test_size_equals_sum_over_traced_adherents(self):
        for host, rule in [
            (hub_host(), redirect_rule()),
            (hub_host(), duplicate_rule()),
            (hub_host_extra_loop(), copy_vertex_rule()),
            (three_spoke_host(), three_spoke_rule()),
        ]:
            redex = only_redex(host, rule)
            _, j_prime, _, _ = construct_rhs_patch(redex, fresh_base=1000)
            expected = sum(
                sum(1 for j, te in redex.h_l.items() if te == rule.trace[t])
                for t in rule.rhs.ptype.edges)
            assert len(j_prime.edges) == expected


class TestStepPlan:
    def test_slots_name_the_context_end_of_the_old_edge(self):
        # k4 = (CTX, 4) is kept in place and inverted, k3 = (3, CTX) moved:
        # the context end is the old source for both k4 copies, the old
        # target for k3, and edges inside the pattern have none.
        rule = three_spoke_rule()
        vertices, edges, types = rule._step_plan
        assert (vertices, edges) == ([11, 13, 14], [100, 101])
        assert [(rule.rhs.ptype.edges[t], slot) for t, _, _, _, slot in types] == [
            ((11, 13), None), ((11, 13), None), ((CONTEXT, 11), 0), ((14, CONTEXT), 0),
            ((13, CONTEXT), 2)]
        assert [left for _, left, _, _, _ in types] == [rule.trace[t] for t, *_ in types]

    def test_steps_work_the_plan_out_once_and_call_no_context_of(self, monkeypatch):
        # The function's code is replaced, so a call through any name raises.
        def refused(*args):
            raise AssertionError("context_of called on the step path")

        monkeypatch.setattr(matching.context_of, "__code__", refused.__code__)
        with pytest.raises(AssertionError, match="step path"):  # else frozenset({5})
            pgr.context_of(9, {9: 1}, Graph([5, 0], [(9, 5, "a", 0)]),
                           PatchType(Graph([0]), {1: (CONTEXT, 0)}))
        rules = deadlock_rules()
        for g, _, _ in deadlock_workload_nets()[::5]:
            normalize(g, rules)
        plans = {name: vars(rule)["_step_plan"] for name, rule in rules.items()
                 if "_step_plan" in vars(rule)}
        assert plans
        for g, _, _ in deadlock_workload_nets()[1::5]:
            normalize(g, rules)
        assert all(rules[name]._step_plan is plan for name, plan in plans.items())


class TestApplyAt:
    def test_host_untouched(self):
        host = hub_host()
        before = Graph(host.vertices, dict(host.edges))
        apply_at(host, only_redex(host, delete_rule()))
        assert host == before

    def test_fresh_ids_above_host(self):
        host = hub_host()
        result, cert = apply_at(host, only_redex(host, redirect_rule()))
        fresh = (set(result.vertices) - set(host.vertices)) \
            | (set(result.edges) - set(host.edges))
        assert all(i > host.max_id() for i in fresh)

    def test_context_ids_survive_verbatim(self):
        host = hub_host()
        result, cert = apply_at(host, only_redex(host, redirect_rule()))
        ctx = cert.redex.decomposition.context
        assert ctx.vertices <= result.vertices
        assert all(result.edges[e] == ctx.edges[e] for e in ctx.edges)

    def test_create_rule_adds_isolated_vertex(self):
        create = build_rule(EMPTY_GRAPH, {}, Graph([0]), [])
        host = hub_host()
        redexes, _ = find_redexes(host, create)
        assert len(redexes) == 1
        result, _ = apply_at(host, redexes[0])
        assert len(result.vertices) == len(host.vertices) + 1
        assert result.edges == host.edges

    def test_four_vertex_pattern_application(self):
        host = three_spoke_host()
        result, cert = apply_at(host, only_redex(host, three_spoke_rule()))
        assert verify_step(host, result, cert)
        assert isomorphic(result, three_spoke_expected())

    def test_map_missing_a_patch_edge_raises(self):
        # The step reads each patch edge's type off ``h_l``; a map that
        # misses one is refused, even where the right side drops every
        # edge of that type, and never read as a request to drop the edge.
        for host, rule in [(hub_host(), delete_rule()), (hub_host(), redirect_rule()),
                           (three_spoke_host(), three_spoke_rule())]:
            redex = only_redex(host, rule)
            for j in redex.h_l:
                short = {k: t for k, t in redex.h_l.items() if k != j}
                with pytest.raises(KeyError):
                    apply_at(host, tampered_left(redex, h_l=short))

    def test_equal_rules_built_apart_step_alike(self):
        # Two equal rules built apart, their steps interleaved: each gives
        # the other's results and certificates, ids and edge order included.
        hosts = [hub_host(), hub_host_extra_loop(), three_spoke_host(), *ds_states()[::40]]
        makers = [delete_rule, redirect_rule, duplicate_rule, invert_pull_rule,
                  copy_vertex_rule, three_spoke_rule,
                  *(lambda name=name: dijkstra_scholten_system()[name]
                    for name in dijkstra_scholten_system())]
        steps = 0
        for make in makers:
            first, second = make(), make()
            assert first == second and first is not second
            for host in hosts:
                for a, b in zip(find_redexes(host, first)[0], find_redexes(host, second)[0]):
                    (ra, ca), (rb, cb) = apply_at(host, a), apply_at(host, b)
                    assert list(ra.edges.items()) == list(rb.edges.items())
                    assert list(ca.j_prime.edges.items()) == list(cb.j_prime.edges.items())
                    assert (ca.rhs_instance, ca.h_r, ca.sigma) == (cb.rhs_instance, cb.h_r,
                                                                   cb.sigma)
                    steps += 1
        assert steps > 20, steps


class TestVerifyStep:
    def all_fixture_steps(self):
        cases = [
            (hub_host(), delete_rule()),
            (hub_host(), redirect_rule()),
            (hub_host(), duplicate_rule()),
            (hub_host(), invert_pull_rule()),
            (hub_host_extra_loop(), copy_vertex_rule()),
            (three_spoke_host(), three_spoke_rule()),
        ]
        for host, rule in cases:
            redex = only_redex(host, rule)
            result, cert = apply_at(host, redex)
            yield host, result, cert

    def test_accepts_every_constructed_step(self):
        for host, result, cert in self.all_fixture_steps():
            assert verify_step(host, result, cert)

    def test_accepts_random_steps(self):
        rng = random.Random(20240817)
        for host, rule, redex in random_instances(rng, 40):
            result, cert = apply_at(host, redex)
            assert verify_step(host, result, cert)

    def test_rejects_flipped_label(self):
        host = hub_host()
        redex = only_redex(host, redirect_rule())
        result, cert = apply_at(host, redex)
        e = min(cert.j_prime.edges)
        s, lab, t = cert.j_prime.edges[e]
        edited = dict(cert.j_prime.edges)
        edited[e] = (s, "zz", t)
        bad_j = Graph(cert.j_prime.vertices, edited)
        bad_result = graph_union(
            graph_union(cert.redex.decomposition.context, bad_j),
            rename_graph(redex.rule.rhs.pattern, cert.rhs_instance))
        bad = StepCertificate(cert.redex, cert.rhs_instance, bad_j,
                              cert.h_r, cert.sigma)
        assert not verify_step(host, bad_result, bad)

    def test_rejects_dropped_edge(self):
        host = hub_host()
        redex = only_redex(host, redirect_rule())
        result, cert = apply_at(host, redex)
        e = min(cert.j_prime.edges)
        edited = dict(cert.j_prime.edges)
        del edited[e]
        vertices = {s for s, _, _ in edited.values()} | \
                   {t for _, _, t in edited.values()}
        bad_j = Graph(vertices, edited)
        bad_result = graph_union(
            graph_union(cert.redex.decomposition.context, bad_j),
            rename_graph(redex.rule.rhs.pattern, cert.rhs_instance))
        bad = StepCertificate(cert.redex, cert.rhs_instance, bad_j,
                              {k: v for k, v in cert.h_r.items() if k != e},
                              {k: v for k, v in cert.sigma.items() if k != e})
        assert not verify_step(host, bad_result, bad)

    def test_rejects_wrong_host(self):
        host = hub_host()
        redex = only_redex(host, redirect_rule())
        result, cert = apply_at(host, redex)
        assert not verify_step(hub_host_extra_loop(), result, cert)

    def test_rejects_swapped_positions(self):
        # Same match graph, but 5 now stands for the vertex without a
        # ``ctx ->`` placeholder.
        host, result, cert = two_position_step()
        assert verify_step(host, result, cert)
        swapped = tampered_left(cert.redex, embedding=Renaming({0: 6, 1: 5}))
        assert rename_graph(swapped.rule.lhs.pattern, swapped.embedding) \
            == swapped.decomposition.match
        bad = StepCertificate(swapped, cert.rhs_instance, cert.j_prime,
                              cert.h_r, cert.sigma)
        assert not verify_step(host, result, bad)

    def test_rejects_left_map_to_other_shape(self):
        host, result, cert = two_position_step()
        left = cert.redex.rule.lhs.ptype.edges
        (j, te), = cert.redex.h_l.items()
        other, = [t for t in left if t != te]
        assert left[other] != left[te]
        bad = StepCertificate(tampered_left(cert.redex, h_l={j: other}),
                              cert.rhs_instance, cert.j_prime, cert.h_r, cert.sigma)
        assert not verify_step(host, result, bad)

    def test_rejects_right_map_to_other_shape(self):
        # Swapped, each loop still pairs with the one old edge and touches no
        # context, so only its shape, read through the instance, is wrong.
        host, result, cert = two_position_step()
        right = cert.redex.rule.rhs.ptype.edges
        e1, e2 = sorted(cert.h_r)
        assert right[cert.h_r[e1]] != right[cert.h_r[e2]]
        bad = StepCertificate(cert.redex, cert.rhs_instance, cert.j_prime,
                              {e1: cert.h_r[e2], e2: cert.h_r[e1]}, cert.sigma)
        assert not verify_step(host, result, bad)

    def redirect_step(self, triples):
        """``redirect_rule`` applied at the a-loop on 2 of a host with the
        given edges besides it."""
        host = Graph.from_triples([1, 2, 4], [(2, "a", 2), *triples])
        redex = only_redex(host, redirect_rule())
        result, cert = apply_at(host, redex)
        assert verify_step(host, result, cert)
        return host, result, cert

    def test_rejects_sigma_swapped_across_context_ends(self):
        # Both old edges are b-edges into the hub, from 1 and from 4: the
        # swap keeps labels and each type edge's old edges, so only the
        # context end each new edge keeps tells it apart.
        host, result, cert = self.redirect_step([(1, "b", 2), (4, "b", 2)])
        e1, e2 = sorted(cert.sigma)
        swapped = {e1: cert.sigma[e2], e2: cert.sigma[e1]}
        bad = StepCertificate(cert.redex, cert.rhs_instance, cert.j_prime, cert.h_r, swapped)
        assert not verify_step(host, result, bad)

    def test_rejects_two_new_edges_on_one_old_edge(self):
        # Parallel b-edges from 1: either old edge fits both new edges by
        # label and context end, so only the bijection rejects the pairing.
        host, result, cert = self.redirect_step([(1, "b", 2), (1, "b", 2)])
        e1, e2 = sorted(cert.sigma)
        onto_one = {e1: cert.sigma[e1], e2: cert.sigma[e1]}
        bad = StepCertificate(cert.redex, cert.rhs_instance, cert.j_prime, cert.h_r, onto_one)
        assert not verify_step(host, result, bad)

    def test_rejects_sigma_into_another_trace_image(self):
        # An in-edge and an out-edge, both b and both at context vertex 1:
        # paired the other way round, each new edge keeps its label and
        # context end, but lies outside its type edge's trace image.
        host, result, cert = self.redirect_step([(1, "b", 2), (2, "b", 1)])
        e1, e2 = sorted(cert.sigma)
        assert cert.h_r[e1] != cert.h_r[e2]
        crossed = {e1: cert.sigma[e2], e2: cert.sigma[e1]}
        bad = StepCertificate(cert.redex, cert.rhs_instance, cert.j_prime, cert.h_r, crossed)
        assert not verify_step(host, result, bad)

    def test_rejects_decomposition_missing_a_patch_edge(self):
        # Patch ids and left map both without one old edge: the left half
        # composes back to the host, but the edge would sit in C with an end
        # on the deleted match vertex, dangling in the result.
        host = hub_host()
        redex = only_redex(host, redirect_rule())
        d = redex.decomposition
        kept = sorted(d.patch.edges)[:-1]
        short = Redex(redex.rule, redex.embedding,
                      PatchDecomposition(host, d.match.vertices, frozenset(d.match.edges), kept),
                      {j: redex.h_l[j] for j in kept})
        result, cert = apply_at(host, short)
        assert not verify_step(host, result, cert)
        assert brute_force_step_oracle(host, short) == []

    @pytest.mark.parametrize("bad", ["x", [1], None])
    def test_malformed_map_values_are_failures(self, bad):
        # A value of the wrong type in sigma, h_r or h_l fails the check; it
        # must not raise, even where a check sorts or hashes the values.
        host = parallel_edge_host(3)
        redex = find_redexes(host, parallel_drop_rule())[0][0]
        result, cert = apply_at(host, redex)
        e, j = min(cert.sigma), min(redex.h_l)
        left = tampered_left(redex, h_l={**redex.h_l, j: bad})
        for tampered in (dataclasses.replace(cert, sigma={**cert.sigma, e: bad}),
                         dataclasses.replace(cert, h_r={**cert.h_r, e: bad}),
                         dataclasses.replace(cert, redex=left)):
            assert verify_step(host, result, tampered) is False
        assert brute_force_step_oracle(host, left) == []

    def test_parallel_drop_steps_build_no_checked_graph(self, monkeypatch):
        # Counted: verification composes no graph, so it builds none
        # through the checked constructor.
        steps = []
        for n in range(1, 7):
            host = parallel_edge_host(n)
            redexes, _ = find_redexes(host, parallel_drop_rule())
            steps += [(host, *apply_at(host, r)) for r in redexes]
        counts = []
        init = Graph.__init__

        def counted(self, *args, **kwargs):
            counts.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counted)
        assert all(verify_step(host, result, cert) for host, result, cert in steps)
        assert len(steps) == 126 and counts == []


class TestBruteForceOracle:
    def test_empty_right_type_yields_context_plus_copy(self):
        host = hub_host()
        redex = only_redex(host, delete_rule())
        classes = brute_force_step_oracle(host, redex)
        assert len(classes) == 1
        expected = graph_union(redex.decomposition.context,
                               rename_graph(two_fresh_nodes(),
                                            Renaming({10: 100, 11: 101},
                                                     {100: 102})))
        assert classes[0] == canonical_form(expected)

    def test_matches_apply_on_fixtures(self):
        for host, rule in [
            (hub_host(), redirect_rule()),
            (hub_host(), duplicate_rule()),
            (hub_host(), invert_pull_rule()),
            (hub_host_extra_loop(), copy_vertex_rule()),
        ]:
            redex = only_redex(host, rule)
            result, _ = apply_at(host, redex)
            assert brute_force_step_oracle(host, redex) == [canonical_form(result)]

    def test_quasi_rule_classes_cover_all_choices(self):
        host = parallel_edge_host(3)
        rule = parallel_drop_rule()
        redexes, _ = find_redexes(host, rule)
        oracle_classes = set()
        for redex in redexes:
            classes = brute_force_step_oracle(host, redex)
            assert len(classes) == 1  # fixed adherence map: unique result
            oracle_classes.add(classes[0])
        applied = {canonical_form(apply_at(host, r)[0]) for r in redexes}
        assert oracle_classes == applied

    def test_tampered_redex_yields_nothing(self):
        host, result, cert = two_position_step()
        assert brute_force_step_oracle(host, cert.redex) == [canonical_form(result)]
        swapped = tampered_left(cert.redex, embedding=Renaming({0: 6, 1: 5}))
        assert brute_force_step_oracle(host, swapped) == []
        # A left map that misses a patch edge fails the left half before the
        # oracle reads the map.
        host = hub_host()
        redex = only_redex(host, redirect_rule())
        result, cert = apply_at(host, redex)
        short = {j: te for j, te in redex.h_l.items() if j != min(redex.h_l)}
        bad = StepCertificate(tampered_left(redex, h_l=short), cert.rhs_instance,
                              cert.j_prime, cert.h_r, cert.sigma)
        assert not verify_step(host, result, bad)
        assert brute_force_step_oracle(host, bad.redex) == []
        # So does a decomposition whose patch ids miss that edge too.
        kept = sorted(redex.h_l)[1:]
        d = redex.decomposition
        missed = Redex(redex.rule, redex.embedding,
                       PatchDecomposition(host, d.match.vertices, frozenset(d.match.edges), kept),
                       {j: redex.h_l[j] for j in kept})
        assert brute_force_step_oracle(host, missed) == []

    def test_matches_apply_on_random_quasi_rules(self, monkeypatch):
        monkeypatch.setenv("PGR_MAX_MAPS", "64")
        rng = random.Random(1234)
        checked = 0
        while checked < 30:
            host = random_graph(rng, list(range(rng.randint(1, 3))), 4)
            rule = random_quasi_rule(rng)
            redexes, _ = find_redexes(host, rule)
            for redex in redexes[:2]:
                result, cert = apply_at(host, redex)
                assert verify_step(host, result, cert)
                assert brute_force_step_oracle(host, redex) == \
                    [canonical_form(result)]
                checked += 1

    @pytest.mark.parametrize("n", range(6, 13))
    def test_parallel_edges_give_one_candidate(self, n, monkeypatch):
        # Each new edge is built from the old edge it pairs with, so the n
        # kept parallel edges give one pairing and one derivation, not n!
        # label arrangements and n! pairings; and the edges in from n
        # senders give one, not n^n choices of context ends.
        host = parallel_edge_host(n)
        rule = parallel_drop_rule()
        first = find_redexes(host, rule)[0][0]
        (keep,) = rule.trace.values()
        (drop,) = set(rule.lhs.ptype.edges) - {keep}
        steps = [(host, tampered_left(first, h_l=h_l))
                 for h_l in ({j: keep for j in first.h_l},
                             {j: keep if j % 3 else drop for j in first.h_l})]
        senders = sender_host(n)
        steps.append((senders, only_redex(senders, redirect_rule())))
        calls = []
        derive = rewrite._derived

        def counted(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(rewrite, "_derived", counted)
        for host, redex in steps:
            calls.clear()
            assert brute_force_step_oracle(host, redex) == \
                [canonical_form(apply_at(host, redex)[0])]
            assert len(calls) == 1

    def test_new_edge_ids_follow_a_large_instance(self):
        # The right pattern takes 1,001 ids: the new patch edges must be
        # numbered after the whole instance, not at a fixed offset into it.
        rhs = Graph([10], [(11 + i, 10, "x", 10) for i in range(1000)])
        rule = build_rule(Graph([0]), {"in": (CONTEXT, 0)}, rhs, [(CONTEXT, 10, "in")])
        host = Graph.from_triples([1, 2], [(1, "a", 2)])
        redex = only_redex(host, rule)
        result, cert = apply_at(host, redex)
        assert verify_step(host, result, cert)
        assert brute_force_step_oracle(host, redex) == [canonical_form(result)]


def previous_successors(host, system, dedup=True):
    """``successors`` as it was before its body became ``_expand``."""
    out = []
    seen, results = set(), set()
    truncated = False
    for name, rule in system.items():
        redexes, cut = find_redexes(host, rule)
        truncated = truncated or cut
        for redex in redexes:
            result, _ = apply_at(host, redex)
            if dedup:
                if result in results:
                    continue
                results.add(result)
                key = canonical_form(result)
                if key in seen:
                    continue
                seen.add(key)
            out.append((name, result))
    return out, truncated


def successor_sources():
    """(host, system) pairs: the wait-for grammar on its states up to depth
    5, the termination-detection rules on the DS states, seeded
    deterministic and quasi rules on random hosts, and the parallel-drop
    rule on 1 to 4 parallel edges."""
    grammar = waitfor_grammar()
    yield from ((g, grammar) for g in grammar_reachable(5))
    system = dijkstra_scholten_system()
    yield from ((g, system) for g in ds_states())
    rng = random.Random(2718)
    for host, rule, _ in random_instances(rng, 80):
        yield host, {"r": rule, "q": random_quasi_rule(rng)}
    yield from ((parallel_edge_host(n), {"drop": parallel_drop_rule()}) for n in range(1, 5))


def vertex_map_sources():
    """(host, system, ds) triples for the deterministic rules: the
    termination-detection rules on the DS states and the walk's rules on
    those states with two sends left per process (``ds``), then the
    wait-for grammar on its states up to depth 5, the deadlock rules on the
    ``deadlock`` workload's nets, the samples' rules on their graphs and
    seeded deterministic rules on random hosts."""
    system, walk = dijkstra_scholten_system(), systems._walk_rules(2)
    for g in ds_states():
        yield g, system, True
        yield systems._with_budgets(g, 2), walk, True
    grammar = waitfor_grammar()
    yield from ((g, grammar, False) for g in grammar_reachable(5))
    yield from ((g, deadlock_rules(), False) for g, _, _ in deadlock_workload_nets())
    docs = sample_documents()
    rules = {name: r for doc in docs for name, r in doc.rules.items()}
    yield from ((g, rules, False) for doc in docs for g in doc.graphs.values())
    rng = random.Random(1414)
    yield from ((host, {"r": rule}, False) for host, rule, _ in random_instances(rng, 200))


def previous_twin_redexes(host, redexes):
    """The redexes that ``_expand`` stepped before it built only those: of
    all of ``find_redexes``'s, if there are two, the first per vertex map up
    to the host's twin classes."""
    if len(redexes) > 1:
        twins, first = graph._labelling(host)[2] or {}, {}
        for r in redexes:
            first.setdefault(frozenset((v, twins.get(w, w))
                                       for v, w in r.embedding.vmap.items()), r)
        redexes = list(first.values())
    return redexes


def redex_parts(redexes):
    """Embedding maps, ``h_l`` and the decomposition's ids, per redex."""
    return [(r.embedding.vmap, r.embedding.emap, r.h_l, r.decomposition._mv,
             r.decomposition._me, r.decomposition._je) for r in redexes]


class TestSuccessors:
    def test_twin_redexes_equal_the_previous_filter(self):
        # ``_twin_redexes`` builds exactly the redexes that the filter it
        # replaced kept of the full listing, in order, and fires when the
        # full listing is not empty.  Every other grammar state to depth 7
        # is a fresh copy, which ``_twin_redexes`` labels for its twins
        # before the reference does.  On n parallel edges, a rule whose
        # pattern has k of them builds one of the n!/(n-k)! embeddings, on
        # the first edges.  ``vertex_map_sources`` are compared below.
        one, pair = (build_rule(Graph([0, 1], [(e, 0, "a", 1) for e in range(k)]),
                                {"rest": (0, 1)}, Graph([10, 11], [(20, 10, "b", 11)]),
                                [(10, 11, "rest")]) for k in (1, 2))
        grammar, cap, skipped = waitfor_grammar(), matching.default_map_cap(), Counter()
        sources = [(Graph(g.vertices, g.edges) if i % 2 else g, grammar)
                   for i, g in enumerate(grammar_reachable(7))]
        parallel = {"one": one, "pair": pair}
        sources += [(parallel_edge_host(n), parallel) for n in range(1, 7)]
        for host, system in sources:
            for rule in (r for r in system.values() if r.deterministic):
                got, full = matching._twin_redexes(host, rule, cap), find_redexes(host, rule)[0]
                assert redex_parts(got) == redex_parts(previous_twin_redexes(host, full))
                assert bool(got) == bool(full)
                skipped[system is parallel] += len(full) - len(got)
        first = matching._twin_redexes(parallel_edge_host(6), pair, cap)
        assert [r.embedding.emap for r in first] == [{0: 0, 1: 1}]
        assert skipped[False] > 100 and skipped[True] == 15 + 65  # n - 1, n(n - 1) - 1

    def test_twin_redexes_read_each_embedding_once(self, monkeypatch):
        # Counted: on a host not labelled yet, ``_twin_redexes`` reads each
        # embedding's patch and maps once and builds its redexes from those
        # reads; on the budgeted triangle, ``snd-b-2`` reads two embeddings
        # for its two redexes.  The redexes are those of the filter it
        # replaced, on the DS states with two sends left per process.
        entry, reads = matching._entry, []

        def counted(host, rule, key, emb, cap):
            reads.append(emb)
            return entry(host, rule, key, emb, cap)

        walk, cap, counts = systems._walk_rules(2), matching.default_map_cap(), {}
        triangle = ds_initial_network([(0, 1), (1, 2), (0, 2)], 0).graph
        for i, state in enumerate([triangle] + ds_states()[::10]):
            host = systems._with_budgets(state, 2)
            for name, rule in ((n, r) for n, r in walk.items() if r.deterministic):
                embs = matching._embeddings(host, rule.lhs.pattern, rule.lhs.ptype, None, True)
                with monkeypatch.context() as m:
                    m.setattr(matching, "_entry", counted)
                    reads.clear()
                    got = matching._twin_redexes(Graph(host.vertices, host.edges), rule, cap)
                assert [id(emb) for emb in reads] == list(dict.fromkeys(map(id, reads)))
                assert len(reads) == len(embs) >= len(got)
                assert redex_parts(got) == redex_parts(
                    previous_twin_redexes(host, find_redexes(host, rule)[0]))
                counts[i, name] = len(reads), len(got)
        assert counts[0, "snd-b-2"] == (2, 2)
        assert sum(n for _, n in counts.values()) > 100

    def test_redexes_with_one_vertex_map_give_equal_steps(self):
        # Under a seen set, ``_expand`` steps once per vertex map of a
        # deterministic rule.  The redexes it skips differ from the one it
        # applies only in which parallel host edge, of equal triple, a
        # pattern edge takes, so their results are isomorphic to its result,
        # whose form the seen set holds.  On the DS inputs they are equal,
        # edge order included.  Elsewhere a skipped result may number its
        # new patch edges in another order, when an edge of another label
        # runs between the same match vertices (wait-for ``grant``).
        # ``_twin_redexes`` lists the first of them up to twins, as the
        # filter it replaced did; the test above has the other inputs.
        repeats, exact, cap = Counter(), Counter(), matching.default_map_cap()
        for host, system, ds in vertex_map_sources():
            for rule in (r for r in system.values() if r.deterministic):
                groups, listed = {}, matching._twin_redexes(host, rule, cap)
                full = find_redexes(host, rule)[0]
                assert redex_parts(listed) == redex_parts(previous_twin_redexes(host, full))
                assert bool(listed) == bool(full)
                for redex in full:
                    groups.setdefault(frozenset(redex.embedding.vmap.items()), []).append(redex)
                for first, *rest in groups.values():
                    expected, _ = apply_at(host, first)
                    for redex in rest:
                        result, _ = apply_at(host, redex)
                        assert canonical_form(result) == canonical_form(expected)
                        exact[ds] += (list(result.edges.items()), result.vertices) == \
                            (list(expected.edges.items()), expected.vertices)
                        repeats[ds] += 1
        assert exact[True] == repeats[True] > 1000
        assert 0 < exact[False] < repeats[False]

    def test_without_dedup_every_listed_redex_is_applied(self, monkeypatch):
        # The sources are built first: their grammar walk runs with dedup.
        sources = list(successor_sources())
        listed, applied = [0], [0]
        search, step = rewrite.find_redexes, rewrite._successor

        def recorded(*args):
            out = search(*args)
            listed[0] += len(out[0])
            return out

        def counted(*args):
            applied[0] += 1
            return step(*args)

        monkeypatch.setattr(rewrite, "find_redexes", recorded)
        monkeypatch.setattr(rewrite, "_successor", counted)
        for host, system in sources:
            successors(host, system, dedup=False)
        assert applied[0] == listed[0] > 0

    @pytest.mark.parametrize("dedup", [True, False])
    def test_equal_to_previous_successors(self, dedup, monkeypatch):
        # Names, graphs with their edge order, and the flag; a map cap of 2
        # on every other host cuts some quasi redex lists.
        flags = set()
        for i, (host, system) in enumerate(successor_sources()):
            set_map_cap(monkeypatch, 2 if i % 2 else None)
            got, truncated = successors(host, system, dedup=dedup)
            expected, flag = previous_successors(host, system, dedup=dedup)
            assert [(n, list(g.edges.items()), g.vertices) for n, g in got] == \
                [(n, list(g.edges.items()), g.vertices) for n, g in expected]
            assert truncated == flag
            flags.add(flag)
        assert flags == {True, False}

    def test_equal_to_previous_successors_on_deeper_grammar_states(self):
        # Most grammar states with twins lie past depth 5.  Every other
        # host is a fresh copy, so ``successors`` labels it for its twins.
        grammar, twins = waitfor_grammar(), 0
        for i, host in enumerate(grammar_reachable(7)):
            if i % 2:
                host = Graph(host.vertices, host.edges)
            got, truncated = successors(host, grammar)
            expected, flag = previous_successors(host, grammar)
            assert [(n, list(g.edges.items()), g.vertices) for n, g in got] == \
                [(n, list(g.edges.items()), g.vertices) for n, g in expected]
            assert truncated == flag is False
            twins += graph._labelling(host)[2] is not None
        assert twins > 20

    def test_single_rule_single_successor(self):
        host = hub_host()
        succ, truncated = successors(host, {"delete": delete_rule()})
        assert len(succ) == 1
        assert not truncated
        assert succ[0][0] == "delete"

    def test_empty_system(self):
        assert successors(hub_host(), {}) == ([], False)

    def test_dedup_collapses_isomorphic_results(self):
        host = parallel_edge_host(2)
        system = {"drop": parallel_drop_rule()}
        kept, _ = successors(host, system, dedup=True)
        full, _ = successors(host, system, dedup=False)
        assert len(full) == 4
        assert len(kept) == 3  # keep-one-of-two appears twice up to iso

    def test_rule_order_respected(self):
        host = hub_host()
        system = {"a": delete_rule(), "b": redirect_rule()}
        succ, _ = successors(host, system, dedup=False)
        assert [name for name, _ in succ] == ["a", "b"]


class TestOneMapCap:
    """``PGR_MAX_MAPS`` caps every listing of adherence maps, and each
    caller reports the cut."""

    def test_four_maps_cut_at_two(self, monkeypatch):
        # An a-loop vertex with two in-edges from the context, each of which
        # adheres to either of two parallel placeholders: four maps.
        quasi = build_rule(Graph([0], [(0, 0, "a", 0)]),
                           {"p": (CONTEXT, 0), "q": (CONTEXT, 0)}, Graph([10]), [])
        host = Graph.from_triples(range(3), [(0, "a", 0), (1, "b", 0), (2, "b", 0)])
        patch = decompose_at(host, {0}, {0}).patch
        assert len(enumerate_adherence_maps(patch, quasi.lhs.ptype, {0: 0})[0]) == 4
        monkeypatch.setenv("PGR_MAX_MAPS", "2")
        maps, truncated = enumerate_adherence_maps(patch, quasi.lhs.ptype, {0: 0})
        assert len(maps) == 2 and truncated
        redexes, truncated = find_redexes(host, quasi)
        assert len(redexes) == 2 and truncated
        succ, truncated = successors(host, {"q": quasi}, dedup=False)
        assert len(succ) == 2 and truncated
        _, trace = normalize(host, {"q": quasi})
        assert trace == [StepRecord("q", (0,), (0,), True)]


class TestNormalize:
    def test_step_limit_equal_to_the_steps_needed(self):
        # The limit is only reached if a redex is left after the last step.
        host = Graph.from_triples(range(3), [(v, "a", v) for v in range(3)])
        nf, trace = normalize(host, {"strict": strict_delete_rule()})
        assert len(trace) == 3
        assert normalize(host, {"strict": strict_delete_rule()}, max_steps=3) == (nf, trace)
        with pytest.raises(StepLimitReached):
            normalize(host, {"strict": strict_delete_rule()}, max_steps=2)

    def test_normal_host_returns_itself(self):
        host = hub_host()
        nf, trace = normalize(host, {"strict": strict_delete_rule()})
        assert nf == host
        assert trace == []

    def test_terminating_chain(self):
        # Dropping the a-loop vertex once leaves nothing else to rewrite.
        host = hub_host()
        nf, trace = normalize(host, {"delete": delete_rule()})
        assert len(trace) == 1
        assert trace[0].rule == "delete"
        assert find_redexes(nf, delete_rule())[0] == []

    def test_step_limit(self):
        # copy keeps producing a-loop vertices forever on this host.
        host = Graph([9], [(0, 9, "a", 9)])
        grow = build_rule(Graph([0], [(0, 0, "a", 0)]),
                          {"in": (CONTEXT, 0), "out": (0, CONTEXT), "l": (0, 0)},
                          Graph([10, 11], [(100, 10, "a", 10), (101, 11, "a", 11)]),
                          [(CONTEXT, 10, "in"), (10, CONTEXT, "out"), (10, 10, "l"),
                           (CONTEXT, 11, "in"), (11, CONTEXT, "out"), (11, 11, "l")])
        with pytest.raises(StepLimitReached) as info:
            normalize(host, {"grow": grow}, max_steps=5)
        assert len(info.value.trace) == 5
        assert len(info.value.graph.vertices) == 6

    def test_random_strategy_reproducible(self):
        host = Graph([1, 2], [(0, 1, "a", 1), (1, 2, "a", 2)])
        system = {"delete": delete_rule()}
        a = normalize(host, system, strategy="random", seed=11)
        b = normalize(host, system, strategy="random", seed=11)
        assert a[0] == b[0]
        assert [r.match_vertices for r in a[1]] == [r.match_vertices for r in b[1]]
        assert len(a[1]) == 2

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            normalize(hub_host(), {}, strategy="greedy")


class TestDeterminism:
    def test_fixture_rules_pass(self):
        hosts = [hub_host(), hub_host_extra_loop(),
                 Graph([9], [(0, 9, "a", 9)])]
        for rule in (delete_rule(), redirect_rule(), duplicate_rule(),
                     invert_pull_rule(), copy_vertex_rule()):
            report = check_rule_determinism(rule, hosts)
            assert report["steps_checked"] > 0

    def test_quasi_rule_rejected(self):
        with pytest.raises(ValueError):
            check_rule_determinism(parallel_drop_rule(), [parallel_edge_host(2)])

    def test_random_rules_pass(self):
        rng = random.Random(77)
        for host, rule, _ in random_instances(rng, 25):
            check_rule_determinism(rule, [host])


class TestStepInvariance:
    def test_result_invariant_under_host_renaming(self):
        rng = random.Random(5)
        for host, rule, redex in random_instances(rng, 20):
            result, _ = apply_at(host, redex)
            phi = Renaming({v: v + 60 for v in host.vertices},
                           {e: e + 60 for e in host.edges})
            moved = rename_graph(host, phi)
            moved_redexes, _ = find_redexes(moved, rule)
            moved_results = {canonical_form(apply_at(moved, r)[0])
                             for r in moved_redexes}
            assert canonical_form(result) in moved_results
