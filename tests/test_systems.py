"""Bundled systems: wait-for nets, termination detection, elementary rules."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from fixtures import deadlock_workload_nets
from previous_ds_explore import TOPOLOGIES, previous_walk

from pgr import graph, matching, rewrite, systems
from pgr.exceptions import AlphabetClash, SelfLoopInTopology
from pgr.graph import EMPTY_GRAPH, Graph, canonical_form, isomorphic
from pgr.matching import find_pattern_embeddings, find_redexes
from pgr.rewrite import apply_at, successors
from pgr.rules import CONTEXT, build_rule, rules_isomorphic, validate_quasi_rule
from pgr.systems import (
    DsState,
    WaitForNet,
    announce_safe,
    deadlock_rules,
    detect_deadlock,
    dijkstra_scholten_system,
    drop_loops_rule,
    ds_explore,
    ds_initial_network,
    elementary_rules,
    encode_vertex_labels,
    make_n_of_m_rule,
    waitfor_grammar,
    waitfor_system,
)

U = "_"


def request_net(*requests, processes):
    """Build a wait-for net from (requester, targets, s_count) triples."""
    vertices = list(processes)
    triples = []
    nxt = max(processes, default=-1) + 1
    for requester, targets, s_count in requests:
        r = nxt
        nxt += 1
        vertices.append(r)
        triples.append((requester, U, r))
        triples.extend((r, U, t) for t in targets)
        triples.append((r, "z", r))
        triples.extend((r, "s", r) for _ in range(s_count))
    return Graph.from_triples(vertices, triples)


def grammar_reachable(max_depth, start=EMPTY_GRAPH):
    seen = {canonical_form(start): start}
    frontier = [start]
    rules = waitfor_grammar()
    for _ in range(max_depth):
        nxt = []
        for g in frontier:
            for _, s in successors(g, rules, dedup=True)[0]:
                key = canonical_form(s)
                if key not in seen:
                    seen[key] = s
                    nxt.append(s)
        frontier = nxt
    return list(seen.values())


class TestWaitForGrammar:
    def test_create_from_empty(self):
        redexes, _ = find_redexes(EMPTY_GRAPH, waitfor_grammar()["create"])
        assert len(redexes) == 1
        g, _ = apply_at(EMPTY_GRAPH, redexes[0])
        assert len(g.vertices) == 1 and not g.edges

    def test_one_of_one_then_ext_one_is_two_of_two(self):
        procs = Graph([0, 1, 2])
        g1, _ = apply_at(procs, find_redexes(procs, waitfor_grammar()["1-of-1"])[0][0])
        g2, _ = apply_at(g1, find_redexes(g1, waitfor_grammar()["ext-1"])[0][0])
        atomic, _ = apply_at(procs, find_redexes(procs, make_n_of_m_rule(2, 2))[0][0])
        assert isomorphic(g2, atomic)

    def test_reachable_states_are_valid_nets(self):
        for g in grammar_reachable(5):
            net = WaitForNet(g)
            assert net.violations() == [], g

    def test_one_key_per_class_at_every_depth(self):
        # The walk keeps one state per canonical form; a form that splits an
        # isomorphism class would leave an extra key.
        assert [len(grammar_reachable(k)) for k in range(1, 9)] == \
            [2, 3, 5, 8, 15, 29, 66, 157]


class TestMakeNOfM:
    def figure_1_of_1(self):
        # Hand transcription of the basic request-creation rule: requester
        # and target stay, a request vertex with one z and one s loop appears.
        lhs = Graph([0, 1])
        types = {"k1": (CONTEXT, 0), "k2": (CONTEXT, 1), "k3": (1, CONTEXT)}
        rhs = Graph([0, 1, 2],
                    [(0, 0, U, 2), (1, 2, U, 1), (2, 2, "z", 2), (3, 2, "s", 2)])
        return build_rule(lhs, types, rhs,
                          [(s, t, k) for k, (s, t) in types.items()])

    def figure_2_of_2(self):
        lhs = Graph([0, 1, 2])
        types = {"k1": (CONTEXT, 0),
                 "k2": (CONTEXT, 1), "k3": (1, CONTEXT),
                 "k4": (CONTEXT, 2), "k5": (2, CONTEXT)}
        rhs = Graph([0, 1, 2, 3],
                    [(0, 0, U, 3), (1, 3, U, 1), (2, 3, U, 2),
                     (3, 3, "z", 3), (4, 3, "s", 3), (5, 3, "s", 3)])
        return build_rule(lhs, types, rhs,
                          [(s, t, k) for k, (s, t) in types.items()])

    def test_one_of_one_matches_figure(self):
        assert rules_isomorphic(make_n_of_m_rule(1, 1), self.figure_1_of_1())

    def test_two_of_two_matches_figure(self):
        assert rules_isomorphic(make_n_of_m_rule(2, 2), self.figure_2_of_2())

    def test_two_of_three_counts(self):
        rule = make_n_of_m_rule(2, 3)
        rhs = rule.rhs.pattern
        request = max(rhs.vertices)
        out = [e for e in rhs.out_edges(request) if rhs.tgt(e) != request]
        loops = [rhs.label(e) for e in rhs.out_edges(request)
                 if rhs.tgt(e) == request]
        assert len(out) == 3
        assert sorted(loops) == ["s", "s", "z"]

    def test_all_rules_validate(self):
        for name, rule in {**waitfor_grammar(), **waitfor_system()}.items():
            assert validate_quasi_rule(rule) == [], name


class TestWaitForBehavior:
    def test_grant_removes_edge_and_s_loop(self):
        net = request_net((0, (1,), 1), processes=[0, 1])
        redexes, _ = find_redexes(net, waitfor_system()["grant"])
        assert len(redexes) == 1
        result, _ = apply_at(net, redexes[0])
        expected = request_net((0, (), 0), processes=[0, 1])
        assert isomorphic(result, expected)

    def test_grant_needs_unblocked_granter(self):
        # Both processes wait on each other: nobody can grant.
        net = request_net((0, (1,), 1), (1, (0,), 1), processes=[0, 1])
        assert find_redexes(net, waitfor_system()["grant"])[0] == []

    def test_resolve_deletes_exhausted_request(self):
        # Granted 1-of-2 request: one target edge remains next to the z loop.
        net = request_net((0, (1,), 0), processes=[0, 1])
        redexes, _ = find_redexes(net, waitfor_system()["resolve"])
        assert len(redexes) == 1
        result, _ = apply_at(net, redexes[0])
        assert isomorphic(result, Graph([0, 1]))

    def test_resolve_blocked_by_remaining_s_loop(self):
        net = request_net((0, (1,), 1), processes=[0, 1])
        assert find_redexes(net, waitfor_system()["resolve"])[0] == []

    def test_clone_splits_incoming_requests(self):
        # Three requests point at process 3; the clone takes one of them.
        net = request_net((0, (3,), 1), (1, (3,), 1), (2, (3,), 1),
                          processes=[0, 1, 2, 3])
        redexes, _ = find_redexes(net, waitfor_system()["clone-1"])
        assert redexes
        result, _ = apply_at(net, redexes[0])
        expected = Graph.from_triples(
            [0, 1, 2, 30, 31, 40, 41, 42],
            [(0, U, 40), (40, U, 30), (40, "z", 40), (40, "s", 40),
             (1, U, 41), (41, U, 30), (41, "z", 41), (41, "s", 41),
             (2, U, 42), (42, U, 31), (42, "z", 42), (42, "s", 42)],
        )
        assert isomorphic(result, expected)

    def test_clone_2_replicates_pending_request(self):
        # The overloaded process itself waits on someone else.
        net = request_net((0, (4,), 1), (1, (4,), 1), (2, (4,), 1),
                          (4, (3,), 2), processes=[0, 1, 2, 3, 4])
        redexes, _ = find_redexes(net, waitfor_system()["clone-2"])
        assert redexes
        result, _ = apply_at(net, redexes[0])
        net_after = WaitForNet(result)
        # Both the original and the clone now carry a pending request with
        # the same shape (two s loops, one target).
        assert len(net_after.requests) == 5
        assert net_after.violations() == []

    def test_successor_count_matches_hand_enumeration(self):
        # Two processes, one pending 1-of-1 request: only the grant fires.
        net = request_net((0, (1,), 1), processes=[0, 1])
        succ, _ = successors(net, deadlock_rules(), dedup=False)
        assert [name for name, _ in succ] == ["grant"]
        # The grant isolates the granter, so destroy joins resolve.
        after_grant = succ[0][1]
        succ2, _ = successors(after_grant, deadlock_rules(), dedup=False)
        assert [name for name, _ in succ2] == ["resolve", "destroy"]
        after_resolve = succ2[0][1]
        succ3, _ = successors(after_resolve, deadlock_rules(), dedup=False)
        assert [name for name, _ in succ3] == ["destroy", "destroy"]

    def test_destroy_only_isolated(self):
        net = request_net((0, (1,), 1), processes=[0, 1])
        assert find_redexes(net, waitfor_system()["destroy"])[0] == []
        lonely = Graph([7])
        redexes, _ = find_redexes(lonely, waitfor_system()["destroy"])
        assert len(redexes) == 1


class TestDeadlock:
    def test_empty_net_is_free(self):
        assert not detect_deadlock(WaitForNet(EMPTY_GRAPH)).deadlocked

    def test_two_cycle_deadlocks(self):
        net = request_net((0, (1,), 1), (1, (0,), 1), processes=[0, 1])
        report = detect_deadlock(WaitForNet(net))
        assert report.deadlocked
        assert report.verdict == "deadlocked"
        assert not report.normal_form.is_empty()

    def test_grantable_chain_is_free(self):
        net = request_net((0, (1,), 1), processes=[0, 1])
        report = detect_deadlock(WaitForNet(net))
        assert not report.deadlocked
        assert report.normal_form.is_empty()
        assert [r.rule for r in report.trace] == \
            ["grant", "resolve", "destroy", "destroy"]

    def test_rules_are_built_once_per_process(self, monkeypatch):
        # Counted: after its first call, deadlock detection builds no matcher
        # (so no rule), while ``deadlock_rules()`` still hands out new rules.
        nets = [g for g, _, _ in deadlock_workload_nets()[::10]]
        detect_deadlock(nets[0])
        init, built = matching._Matcher.__init__, []

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(matching._Matcher, "__init__", counted)
        assert any(detect_deadlock(g).trace for g in nets)
        assert built == []
        assert deadlock_rules()["grant"] is not deadlock_rules()["grant"]

    def test_bundled_rule_sets_are_built_on_first_use(self):
        # Importing the engine builds no rule: the caches start empty.
        code = ("import pgr.cli, pgr.systems as s; "
                "assert s._deadlock_rules.cache_info().currsize == 0; "
                "assert s._walk_rules.cache_info().currsize == 0")
        env = {**os.environ, "PYTHONPATH": str(Path(systems.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_measure_strictly_decreases(self):
        net = request_net((0, (1, 2), 2), (1, (2,), 1), processes=[0, 1, 2])
        rules = deadlock_rules()
        frontier = [net]
        seen = {canonical_form(net)}
        while frontier:
            g = frontier.pop()
            for _, s in successors(g, rules, dedup=True)[0]:
                assert len(s.vertices) + len(s.edges) < \
                    len(g.vertices) + len(g.edges)
                key = canonical_form(s)
                if key not in seen:
                    seen.add(key)
                    frontier.append(s)

    def test_normal_form_unique_on_small_family(self):
        nets = []
        for s1 in (0, 1):
            for s2 in (0, 1):
                nets.append(request_net((0, (1,), s1), (1, (2,), s2),
                                        processes=[0, 1, 2]))
        nets.append(request_net((0, (1, 2), 1), processes=[0, 1, 2]))
        rules = deadlock_rules()
        for net in nets:
            classes = set()
            stack = [net]
            while stack:
                g = stack.pop()
                succ, _ = successors(g, rules, dedup=True)
                if not succ:
                    classes.add(canonical_form(g))
                else:
                    stack.extend(s for _, s in succ)
            assert len(classes) == 1, net


class TestDijkstraScholten:
    def test_initial_network_shape(self):
        st = ds_initial_network([(0, 1)], 0)
        g = st.graph
        assert g.vertices == frozenset({0, 1})
        labels = sorted(g.edges.values())
        assert labels == [(0, "e", 1), (0, "i", 0), (0, "t", 0), (1, "e", 0)]
        assert st.violations() == []

    def test_single_vertex_network(self):
        st = ds_initial_network([], 5)
        assert sorted(lab for _, lab, _ in st.graph.edges.values()) == ["i", "t"]

    def test_triangle_topology(self):
        st = ds_initial_network([(0, 1), (1, 2), (0, 2)], 1)
        e_edges = [t for t in st.graph.edges.values() if t[1] == "e"]
        assert len(e_edges) == 6

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopInTopology):
            ds_initial_network([(0, 0)], 0)

    def test_send_adds_counter_and_message(self):
        st = ds_initial_network([(0, 1)], 0)
        system = dijkstra_scholten_system()
        redexes, _ = find_redexes(st.graph, system["snd-b"])
        assert len(redexes) == 1  # only the initiator is in the tree
        result, _ = apply_at(st.graph, redexes[0])
        labels = sorted(lab for _, lab, _ in result.edges.values())
        assert labels == ["b", "e", "e", "i", "s", "t"]

    def test_join_turns_message_into_parent_edge(self):
        st = ds_initial_network([(0, 1)], 0)
        system = dijkstra_scholten_system()
        g1, _ = apply_at(st.graph, find_redexes(st.graph, system["snd-b"])[0][0])
        redexes, _ = find_redexes(g1, system["rec-b-2"])
        assert len(redexes) == 1
        g2, _ = apply_at(g1, redexes[0])
        labels = sorted(lab for _, lab, _ in g2.edges.values())
        assert labels == ["e", "e", "i", "p", "s", "t", "t"]
        assert DsState(g2).violations() == []

    def test_announce_blocked_by_counter(self):
        st = ds_initial_network([(0, 1)], 0)
        system = dijkstra_scholten_system()
        g1, _ = apply_at(st.graph, find_redexes(st.graph, system["snd-b"])[0][0])
        assert find_redexes(g1, system["announce"])[0] == []
        # In the quiescent initial state the initiator can announce.
        assert len(find_redexes(st.graph, system["announce"])[0]) == 1

    def test_exploration_is_safe_with_one_send(self):
        result = ds_explore(ds_initial_network([(0, 1), (1, 2)], 0),
                            max_sends_per_process=1)
        assert result.states
        assert result.announce_states
        assert result.safety_violations == []
        assert not result.truncated

    def test_depth_cap_flags_truncation(self):
        result = ds_explore(ds_initial_network([(0, 1), (1, 2)], 0),
                            max_sends_per_process=1, max_depth=2)
        assert result.truncated

    def test_full_round_on_two_processes(self):
        # send, join, quit, acknowledge, announce: the counter returns to
        # zero and the tree empties before the announcement fires.
        system = dijkstra_scholten_system()

        def labels(g):
            return sorted(lab for _, lab, _ in g.edges.values())

        def step(g, rule_name):
            redexes, _ = find_redexes(g, system[rule_name])
            assert redexes, rule_name
            out, _ = apply_at(g, redexes[0])
            return out

        g = ds_initial_network([(0, 1)], 0).graph
        g = step(g, "snd-b")
        assert labels(g) == ["b", "e", "e", "i", "s", "t"]
        g = step(g, "rec-b-2")
        assert labels(g) == ["e", "e", "i", "p", "s", "t", "t"]
        g = step(g, "quit")
        assert labels(g) == ["c", "e", "e", "i", "s", "t"]
        g = step(g, "rec-c")
        assert labels(g) == ["e", "e", "i", "t"]
        g = step(g, "announce")
        assert labels(g) == ["e", "e", "i"]
        for name, rule in system.items():
            assert find_redexes(g, rule)[0] == [] or name == "snd-b"

    def test_receive_while_in_tree_acknowledges(self):
        g = Graph.from_triples(
            [0, 1],
            [(0, "i", 0), (0, "t", 0), (1, "t", 1),
             (0, "e", 1), (1, "e", 0), (0, "s", 0), (0, "b", 1)])
        system = dijkstra_scholten_system()
        redexes, _ = find_redexes(g, system["rec-b-1"])
        assert len(redexes) == 1
        out, _ = apply_at(g, redexes[0])
        labels = sorted(lab for _, lab, _ in out.edges.values())
        assert labels == ["c", "e", "e", "i", "s", "t", "t"]

    def test_announce_safe_predicate(self):
        good = Graph.from_triples([0, 1], [(0, "i", 0), (0, "t", 0), (0, "e", 1)])
        assert announce_safe(good)
        bad = Graph.from_triples([0, 1], [(0, "i", 0), (1, "t", 1), (0, "e", 1)])
        assert not announce_safe(bad)


def budgets(g):
    """Each process's sends left: the k of the ``left-k`` loop on the vertex
    its ``budget`` edge leads to."""
    left = {s: int(lab.removeprefix("left-")) for s, lab, t in g.edges.values()
            if lab.startswith("left-")}
    return {s: left[t] for s, lab, t in g.edges.values() if lab == "budget"}


def budgeted_states(links, sends, limit):
    """The first ``limit`` states, budget vertices kept, of a breadth-first
    walk over ``successors`` under the walk's rules."""
    system = systems._walk_rules(sends)
    states = [systems._with_budgets(ds_initial_network(links, 0).graph, sends)]
    seen = {canonical_form(states[0])}
    for g in states:
        for _, succ in successors(g, system)[0]:
            if len(states) < limit and canonical_form(succ) not in seen:
                seen.add(canonical_form(succ))
                states.append(succ)
    return states


class TestSendBudgetInTheGraph:
    PINNED = {"line3": (479, 15), "star4": (210, 10), "triangle": (1366, 13)}

    @pytest.mark.parametrize("sends", [0, 1, 2])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_walk_equals_reference(self, topology, sends):
        # Equal multisets of canonical forms, with and without a depth cap.
        def classes(graphs):
            return Counter(canonical_form(g) for g in graphs)

        for depth in (None, 0, 3):
            expected = previous_walk(topology, sends, depth)
            got = ds_explore(ds_initial_network(TOPOLOGIES[topology], 0), sends, depth)
            for part in ("states", "announce_states", "safety_violations"):
                assert classes(getattr(got, part)) == classes(getattr(expected, part))
            assert got.truncated == expected.truncated
            assert got.truncated or depth != 0
            if sends == 2 and depth is None:
                assert (len(got.states), len(got.announce_states)) == self.PINNED[topology]

    def test_announce_does_not_depend_on_rule_order(self, monkeypatch):
        # A copy of announce ahead of it under another name gives results
        # equal to announce's own; the walk reads announce off the rules
        # with a redex, not off the results that survive the dedup.
        walk = systems._walk_rules(2)
        reordered = {"announce-copy": walk["announce"], **walk}
        monkeypatch.setattr(systems, "_walk_rules", lambda sends: reordered)
        got = ds_explore(ds_initial_network(TOPOLOGIES["line3"], 0), 2)
        assert (len(got.states), len(got.announce_states)) == self.PINNED["line3"]
        assert got.safety_violations == []

    def test_one_labelling_lookup_per_result(self, monkeypatch):
        # Every ``canonical_form`` call of the walk labels a graph that was
        # not labelled before: no state's form is looked up twice.
        calls, searches = [0], [0]

        def counted(count, fn):
            def wrapped(g):
                count[0] += 1
                return fn(g)
            return wrapped

        for module in (rewrite, systems):
            monkeypatch.setattr(module, "canonical_form",
                                counted(calls, module.canonical_form))
        monkeypatch.setattr(graph, "_canonical_labelling",
                            counted(searches, graph._canonical_labelling))
        for topology in ("line3", "star4"):
            ds_explore(ds_initial_network(TOPOLOGIES[topology], 0), 2)
        assert calls[0] == searches[0] > 689

    def test_walk_work_is_counted(self, monkeypatch):
        # Counted, not timed, on the line3 walk at two sends: the walk builds
        # only the redexes it steps, one per distinct (state, rule, vertex
        # map), a search runs a compiled plan only if the host has every
        # label of the pattern, and no splitter refines a discrete partition.
        listed, triples, applied, searches, discrete = [0], set(), [0], [0], [0]
        build, step, plan, refine = (rewrite._twin_redexes, rewrite._successor,
                                     matching._Matcher.plan, graph._refine)

        def recorded(host, rule, cap):
            out = build(host, rule, cap)
            listed[0] += len(out)
            triples.update((host, id(rule), frozenset(r.embedding.vmap.items())) for r in out)
            return out

        def counted(count, fn):
            def wrapped(*args):
                count[0] += 1
                return fn(*args)
            return wrapped

        class Adjacency(list):
            def __getitem__(self, x):
                discrete[0] += len(set(self.cell)) == len(self.cell)
                return super().__getitem__(x)

        def watched(adj, lab, pos, cell, end, splitters):
            adj = Adjacency(adj)
            adj.cell = cell
            return refine(adj, lab, pos, cell, end, splitters)

        monkeypatch.setattr(rewrite, "_twin_redexes", recorded)
        monkeypatch.setattr(rewrite, "_successor", counted(applied, step))
        monkeypatch.setattr(matching._Matcher, "plan", counted(searches, plan))
        monkeypatch.setattr(graph, "_refine", watched)
        got = ds_explore(ds_initial_network(TOPOLOGIES["line3"], 0), 2)
        assert (len(got.states), len(got.announce_states)) == self.PINNED["line3"]
        assert (listed[0], applied[0], searches[0], discrete[0]) == (1284, 1284, 2157, 0)
        assert applied[0] == len(triples)

    def test_states_carry_no_budget(self):
        result = ds_explore(ds_initial_network(TOPOLOGIES["star4"], 0), 1)
        assert all(DsState(g).violations() == [] for g in result.states)

    def test_spent_sender_has_no_send_embedding(self):
        g = ds_initial_network(TOPOLOGIES["line3"], 0).graph
        spent = systems._with_budgets(g, 0)
        for k in (1, 2):
            rule = systems._send_rule(k)
            assert find_pattern_embeddings(spent, rule.lhs.pattern, rule.lhs.ptype) == []
            assert find_redexes(spent, rule)[0] == []
            assert len(find_redexes(systems._with_budgets(g, k), rule)[0]) == 1

    def test_send_redexes_are_exactly_the_budgeted_sends(self):
        # One send redex per e-edge out of a tree member with sends left,
        # under the rule of its budget, and none elsewhere.
        spent = 0
        for topology in ("line3", "triangle"):
            for g in budgeted_states(TOPOLOGIES[topology], 2, 120):
                left = budgets(g)
                tree = {s for s, lab, t in g.edges.values() if lab == "t"}
                spent += sum(left[v] == 0 for v in tree)
                expected = sorted((s, t) for s, lab, t in g.edges.values()
                                  if lab == "e" and s in tree and left[s] > 0)
                found = []
                for k in (1, 2):
                    for redex in find_redexes(g, systems._send_rule(k))[0]:
                        sender, receiver = redex.embedding.vmap[0], redex.embedding.vmap[1]
                        assert left[sender] == k
                        found.append((sender, receiver))
                assert sorted(found) == expected
        assert spent > 0

    def test_send_step_lowers_only_its_senders_budget(self):
        steps = 0
        for g in budgeted_states(TOPOLOGIES["star4"], 2, 60):
            left = budgets(g)
            for k in (1, 2):
                for redex in find_redexes(g, systems._send_rule(k))[0]:
                    result, cert = apply_at(g, redex)
                    moved = {hv: cert.rhs_instance.vmap[p]
                             for p, hv in redex.embedding.vmap.items()}
                    sender = redex.embedding.vmap[0]
                    assert budgets(result) == {moved.get(v, v): n - (v == sender)
                                               for v, n in left.items()}
                    steps += 1
        assert steps > 20

    def test_public_system_is_unchanged(self):
        walk = systems._walk_rules(2)
        public = dijkstra_scholten_system()
        assert list(public) == ["snd-b", "rec-b-1", "rec-b-2", "rec-c", "quit", "announce"]
        assert list(walk) == ["announce", "snd-b-1", "snd-b-2",
                              "rec-b-1", "rec-b-2", "rec-c", "quit"]
        for name in ("announce", "rec-b-1", "rec-b-2", "rec-c", "quit"):
            assert rules_isomorphic(walk[name], public[name]) is not None
        assert systems._walk_rules(2) is walk
        assert dijkstra_scholten_system()["snd-b"] is not public["snd-b"]

    @pytest.mark.parametrize("sends", range(4))
    def test_no_map_cap_binds_in_the_walk(self, sends, monkeypatch):
        # Every rule of the walk has a simple left patch type, so each
        # embedding has at most one adherence map and a cap of 1 cuts none.
        system = systems._walk_rules(sends)
        assert all(rule.deterministic for rule in
                   [*system.values(), *dijkstra_scholten_system().values()])
        monkeypatch.setenv("PGR_MAX_MAPS", "1")
        for g in budgeted_states(TOPOLOGIES["line3"], sends, 40):
            assert successors(g, system)[1] is False


class TestElementaryRules:
    def test_all_validate(self):
        rules = elementary_rules()
        for name, rule in rules.items():
            assert validate_quasi_rule(rule) == [], name
        assert not rules["split"].deterministic
        assert rules["merge"].deterministic

    def test_copy_duplicates_all_incident_edges(self):
        host = Graph.from_triples([0, 1, 2],
                                  [(1, "x", 0), (0, "y", 2), (0, "w", 0)])
        redexes, _ = find_redexes(host, elementary_rules()["copy"])
        target = [r for r in redexes if r.embedding.vmap[0] == 0]
        result, _ = apply_at(host, target[0])
        expected = Graph.from_triples(
            [1, 2, 10, 11],
            [(1, "x", 10), (10, "y", 2), (10, "w", 10),
             (1, "x", 11), (11, "y", 2), (11, "w", 11)],
        )
        assert isomorphic(result, expected)

    def test_merge_redirects_edges(self):
        # A triangle with an a-edge: merging its endpoints keeps the third
        # vertex's edges, redirected to the fused vertex.
        from pgr.rewrite import brute_force_step_oracle

        host = Graph.from_triples([0, 1, 2],
                                  [(0, "a", 1), (1, "b", 2), (2, "c", 0)])
        redexes, _ = find_redexes(host, elementary_rules()["merge"])
        assert len(redexes) == 1
        result, _ = apply_at(host, redexes[0])
        expected = Graph.from_triples([5, 6], [(5, "b", 6), (6, "c", 5)])
        assert isomorphic(result, expected)
        assert brute_force_step_oracle(host, redexes[0]) == \
            [canonical_form(result)]

    def test_merge_is_deterministic_on_random_hosts(self):
        import random

        from fixtures import random_graph
        from pgr.rewrite import check_rule_determinism

        rng = random.Random(99)
        hosts = [random_graph(rng, [0, 1, 2, 3], 5) for _ in range(12)]
        report = check_rule_determinism(elementary_rules()["merge"], hosts)
        assert report["hosts"] == 12

    def test_merge_strict_blocks_extra_pattern_edges(self):
        host = Graph.from_triples([0, 1], [(0, "a", 1), (1, "b", 0)])
        assert find_redexes(host, elementary_rules()["merge-strict"])[0] == []
        assert len(find_redexes(host, elementary_rules()["merge"])[0]) == 1

    def test_partial_copy_redistributes(self):
        host = Graph.from_triples([0, 1, 2], [(1, "x", 0), (0, "y", 2)])
        redexes = [r for r in find_redexes(host, elementary_rules()["copy-partial"])[0]
                   if r.embedding.vmap[0] == 0]
        result, _ = apply_at(host, redexes[0])
        expected = Graph.from_triples([1, 2, 10, 11],
                                      [(1, "x", 10), (11, "y", 2)])
        assert isomorphic(result, expected)

    def test_split_on_isolated_vertex_single_outcome(self):
        host = Graph([4])
        redexes, _ = find_redexes(host, elementary_rules()["split"])
        assert len(redexes) == 1  # empty patch: one empty adherence map
        result, _ = apply_at(host, redexes[0])
        assert isomorphic(result, Graph([0, 1]))

    def test_split_distributions_on_two_edges(self):
        host = Graph.from_triples([0, 1, 2], [(1, "x", 0), (2, "x", 0)])
        redexes = [r for r in find_redexes(host, elementary_rules()["split"])[0]
                   if r.embedding.vmap[0] == 0]
        assert len(redexes) == 4  # each incoming edge picks one of two parts
        outcomes = {canonical_form(apply_at(host, r)[0]) for r in redexes}
        assert len(outcomes) == 2  # both-on-one-copy vs one-each, up to iso


class TestVertexLabelEncoding:
    def test_loops_mode(self):
        g = Graph.from_triples([0, 1], [(0, "e", 1)])
        out = encode_vertex_labels(g, {0: "A", 1: "B"}, mode="loops")
        loops = sorted((s, lab) for s, lab, t in out.edges.values() if s == t)
        assert loops == [(0, "A"), (1, "B")]

    def test_loops_mode_alphabet_clash(self):
        g = Graph.from_triples([0, 1], [(0, "e", 1)])
        with pytest.raises(AlphabetClash):
            encode_vertex_labels(g, {0: "e", 1: "B"}, mode="loops")

    def test_root_mode(self):
        g = Graph.from_triples([0, 1], [(0, "e", 1)])
        out = encode_vertex_labels(g, {0: "A", 1: "B"}, mode="root")
        root = max(out.vertices)
        assert len(out.vertices) == 3
        assert len(out.in_edges(root)) == 0
        assert sorted(out.label(e) for e in out.out_edges(root)) == ["A", "B"]
        others = [v for v in out.vertices if v != root]
        assert all(out.in_edges(v) for v in others)

    def test_drop_loops_rule_applies_at_every_vertex(self):
        g = Graph.from_triples([0, 1, 2],
                               [(0, "e", 1), (1, "e", 2), (1, "f", 1)])
        encoded = encode_vertex_labels(g, {0: "A", 1: "B", 2: "A"}, mode="root")
        rule = drop_loops_rule()
        redexes, _ = find_redexes(encoded, rule)
        matched = {r.embedding.vmap[0] for r in redexes}
        assert matched == set(g.vertices)
        # Applying at the loop carrier strips its loop.
        at_loop = [r for r in redexes if r.embedding.vmap[0] == 1][0]
        result, _ = apply_at(encoded, at_loop)
        assert isomorphic(
            result,
            encode_vertex_labels(
                Graph.from_triples([0, 1, 2], [(0, "e", 1), (1, "e", 2)]),
                {0: "A", 1: "B", 2: "A"}, mode="root"))
