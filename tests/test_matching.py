"""Match engine: embeddings, redexes, and the naive existence oracle."""

import itertools
import random
import re
import time
from collections import Counter

import pytest

from fixtures import (
    anchored_redexes,
    copy_vertex_rule,
    deadlock_workload_nets,
    delete_rule,
    ds_states,
    hub_host,
    hub_host_extra_loop,
    random_deterministic_rule,
    random_graph,
    random_instances,
    random_quasi_rule,
    sample_documents,
    set_map_cap,
    shallow_recursion,
    strict_delete_rule,
)
from pgr import matching, rewrite, rules
from pgr.exceptions import NotASubgraph
from pgr.graph import (
    EMPTY_GRAPH,
    Graph,
    Renaming,
    decompose_at,
    rename_graph,
    validate_patch,
)
from pgr.matching import (
    _embedding_key,
    context_of,
    find_pattern_embeddings,
    find_redexes,
)
from pgr.rewrite import apply_at
from pgr.rules import (
    CONTEXT,
    PatchType,
    build_rule,
    enumerate_adherence_maps,
    match_positions,
)
from pgr.systems import (
    WaitForNet,
    deadlock_rules,
    detect_deadlock,
    dijkstra_scholten_system,
    ds_explore,
    ds_initial_network,
)


def reference_embeddings(host, pattern):
    """The full-scan search the edge-following one replaced: every host
    vertex whose label degrees suffice is a candidate for every pattern
    vertex, and the results are sorted by the same key."""
    if len(pattern.vertices) > len(host.vertices) or len(pattern.edges) > len(host.edges):
        return []

    host_groups: dict[tuple, list[int]] = {}
    for e in sorted(host.edges):
        host_groups.setdefault(host.edges[e], []).append(e)

    def degree_sig(g: Graph, v: int):
        return (Counter(g.label(e) for e in g.out_edges(v)),
                Counter(g.label(e) for e in g.in_edges(v)))

    host_sigs = {v: degree_sig(host, v) for v in host.vertices}
    pat_sigs = {v: degree_sig(pattern, v) for v in pattern.vertices}

    def candidates(pv):
        po, pi = pat_sigs[pv]
        out = []
        for hv in sorted(host.vertices):
            ho, hi = host_sigs[hv]
            if all(ho[lab] >= n for lab, n in po.items()) and \
               all(hi[lab] >= n for lab, n in pi.items()):
                out.append(hv)
        return out

    cand = {pv: candidates(pv) for pv in pattern.vertices}
    if any(not c for c in cand.values()):
        return []

    # Connected-first ordering keeps the search tied to what is already
    # assigned; ties broken toward scarcer candidate sets.
    order: list[int] = []
    remaining = set(pattern.vertices)
    while remaining:
        anchored = [v for v in remaining
                    if any((pattern.src(e) in order or pattern.tgt(e) in order)
                           for e in pattern.incident_edges(v))]
        pool = anchored or list(remaining)
        nxt = min(pool, key=lambda v: (len(cand[v]), v))
        order.append(nxt)
        remaining.discard(nxt)

    pat_pairs = Counter((s, lab, t) for s, lab, t in pattern.edges.values())
    vmaps: list[dict[int, int]] = []
    vmap: dict[int, int] = {}
    used: set[int] = set()

    def feasible(v):
        for e in pattern.incident_edges(v):
            s, lab, t = pattern.edges[e]
            if s in vmap and t in vmap:
                if len(host_groups.get((vmap[s], lab, vmap[t]), ())) < pat_pairs[(s, lab, t)]:
                    return False
        return True

    # Depth-first over ``order`` with one candidate iterator per assigned
    # level; a level's current choice is undone before its next one is tried.
    if not order:
        vmaps.append({})
    stack = [iter(cand[order[0]])] if order else []
    while stack:
        v = order[len(stack) - 1]
        if v in vmap:
            used.discard(vmap.pop(v))
        for w in stack[-1]:
            if w in used:
                continue
            vmap[v] = w
            used.add(w)
            if feasible(v):
                break
            del vmap[v]
            used.discard(w)
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            vmaps.append(dict(vmap))
        else:
            stack.append(iter(cand[order[len(stack)]]))

    results = []
    for vm in vmaps:
        pat_groups: dict[tuple, list[int]] = {}
        for e in sorted(pattern.edges):
            s, lab, t = pattern.edges[e]
            pat_groups.setdefault((vm[s], lab, vm[t]), []).append(e)
        pools = [(edges, host_groups[key]) for key, edges in sorted(pat_groups.items())]
        for choice in itertools.product(
                *[itertools.permutations(hs, len(ps)) for ps, hs in pools]):
            emap = {}
            for (ps, _), images in zip(pools, choice):
                emap.update(zip(ps, images))
            results.append(Renaming(vm, emap))
    results.sort(key=_embedding_key)
    return results


def reference_edge_adheres(d, patch_edge, ptype, type_edge):
    """Adherence clause by clause on the parts ``d`` = (C, J, M): an endpoint
    in the context needs a CONTEXT placeholder end, an endpoint in the match
    needs that very vertex."""
    c, j, m = d
    js, _, jt = j.edges[patch_edge]
    ts, tt = ptype.edges[type_edge]
    if js in c.vertices and ts != CONTEXT:
        return False
    if js in m.vertices and js != ts:
        return False
    if jt in c.vertices and tt != CONTEXT:
        return False
    if jt in m.vertices and jt != tt:
        return False
    return True


def full_scan_split(host, match_vertices, match_edges):
    """Split ``host`` around a match by classifying every host edge; the
    parts (C, J, M)."""
    mv, me = set(match_vertices), set(match_edges)
    cv = host.vertices - mv
    c_edges, j_edges = {}, {}
    for e, (s, lab, t) in host.edges.items():
        if e not in me:
            (c_edges if s in cv and t in cv else j_edges)[e] = (s, lab, t)
    j_vertices = {x for s, _, t in j_edges.values() for x in (s, t)}
    return (Graph(cv, c_edges), Graph(j_vertices, j_edges),
            Graph(mv, {e: host.edges[e] for e in me}))


def reference_maps(d, ptype):
    """Every adherence map of the parts ``d``, each patch edge tried against
    every type edge."""
    _, j, _ = d
    edge_ids = sorted(j.edges)
    cands = [[te for te in sorted(ptype.edges)
              if reference_edge_adheres(d, e, ptype, te)] for e in edge_ids]
    return [dict(zip(edge_ids, combo)) for combo in itertools.product(*cands)]


def naive_redex_exists(host, rule):
    """Oracle: try every vertex/edge subset as a match candidate and every
    vertex bijection as the embedding, then check adherence edge by edge."""
    pattern = rule.lhs.pattern
    for vs in itertools.combinations(sorted(host.vertices), len(pattern.vertices)):
        inside = [e for e in sorted(host.edges)
                  if host.src(e) in vs and host.tgt(e) in vs]
        for es in itertools.combinations(inside, len(pattern.edges)):
            m_edges = {e: host.edges[e] for e in es}
            target = Counter(m_edges.values())
            for perm in itertools.permutations(vs):
                vmap = dict(zip(sorted(pattern.vertices), perm))
                moved = Counter((vmap[s], lab, vmap[t])
                                for s, lab, t in pattern.edges.values())
                if moved != target:
                    continue
                d = _, j, m = full_scan_split(host, vs, es)
                moved_type = PatchType(
                    m,
                    {te: (vmap.get(s, CONTEXT) if s != CONTEXT else CONTEXT,
                          vmap.get(t, CONTEXT) if t != CONTEXT else CONTEXT)
                     for te, (s, t) in rule.lhs.ptype.edges.items()})
                if all(any(reference_edge_adheres(d, e, moved_type, te)
                           for te in moved_type.edges)
                       for e in j.edges):
                    return True
    return False


def assert_redexes_match_reference(host, rule):
    """Per reference embedding, in order: the full-scan split and every
    reference map."""
    redexes, truncated = find_redexes(host, rule)
    assert not truncated
    expected = []
    for emb in reference_embeddings(host, rule.lhs.pattern):
        d = full_scan_split(host, emb.image_vertices(), emb.image_edges())
        ptype = rule.lhs.ptype.renamed(emb)
        expected += [(emb, d, h_l) for h_l in reference_maps(d, ptype)]
    got = [(r.embedding, parts(r.decomposition), r.h_l) for r in redexes]
    assert got == expected, (host, rule)


def assert_search_matches_reference(host, rule):
    """Without a type the search lists the reference embeddings in order;
    with the left type it keeps a subsequence of them, and each embedding
    it leaves out has no adherence map under the reference."""
    pattern, ptype = rule.lhs.pattern, rule.lhs.ptype
    expected = reference_embeddings(host, pattern)
    assert find_pattern_embeddings(host, pattern) == expected, (host, pattern)
    kept = iter(find_pattern_embeddings(host, pattern, ptype))
    nxt = next(kept, None)
    dropped = 0
    for emb in expected:
        if emb == nxt:
            nxt = next(kept, None)
            continue
        d = full_scan_split(host, emb.image_vertices(), emb.image_edges())
        assert reference_maps(d, ptype.renamed(emb)) == [], (host, rule, emb)
        dropped += 1
    assert nxt is None, (host, rule)
    assert_redexes_match_reference(host, rule)
    return dropped


def eager_decompose_at(g, match_vertices, match_edges):
    """``decompose_at`` as it was before its parts became lazy: the match
    checked, then J and M built as graphs at once (C, too, here); the parts
    (C, J, M)."""
    mv = frozenset(match_vertices)
    me = frozenset(match_edges)
    if not mv <= g.vertices:
        raise NotASubgraph(f"match vertices outside the graph: {sorted(mv - g.vertices)}")
    if not me <= g.edges.keys():
        raise NotASubgraph(f"match edges outside the graph: {sorted(me - g.edges.keys())}")
    for e in me:
        s, _, t = g.edges[e]
        if s not in mv or t not in mv:
            raise NotASubgraph(f"match edge {e} has an endpoint outside the match vertices")
    match = Graph(mv, {e: g.edges[e] for e in me})
    j_edges = {e: g.edges[e] for v in mv for e in g.incident_edges(v) if e not in me}
    j_vertices = {s for s, _, _ in j_edges.values()} | {t for _, _, t in j_edges.values()}
    context = Graph(g.vertices - mv, {e: triple for e, triple in g.edges.items()
                                      if e not in j_edges and e not in me})
    return context, Graph(j_vertices, j_edges), match


def eager_find_redexes(host, rule, anchors=None):
    """``find_redexes`` as it was: every embedding decomposed eagerly and its
    maps listed by ``enumerate_adherence_maps`` on the built patch, as
    ``(embedding, parts, map, capped)`` per redex.  The embeddings come from
    the search without the patch type, so no pruning by the type is taken on
    trust."""
    redexes, truncated = [], False
    for emb in find_pattern_embeddings(host, rule.lhs.pattern, None, anchors):
        d = _, j, _ = eager_decompose_at(host, emb.image_vertices(), emb.image_edges())
        maps, cut = enumerate_adherence_maps(
            j, rule.lhs.ptype, match_positions(rule.lhs.pattern, emb))
        truncated = truncated or cut
        redexes += [(emb, d, h_l, cut) for h_l in maps]
    return redexes, truncated


def parts(d):
    return d.context, d.patch, d.match


def assert_like_eager(host, rule, anchors=None):
    """Same redexes in the same order as the eager search: embedding, map,
    cap flag and all three parts; the maps of one embedding share one
    decomposition.  Both read the map cap from ``PGR_MAX_MAPS``.  Returns
    the number of redexes.  With ``anchors``, the anchored search of
    ``RedexSets`` is compared."""
    got, cut = find_redexes(host, rule) if anchors is None else \
        anchored_redexes(host, rule, anchors)
    expected, expected_cut = eager_find_redexes(host, rule, anchors)
    assert cut == expected_cut, (host, rule)
    assert [(r.embedding, r.h_l, r.capped) for r in got] == \
        [(emb, h_l, capped) for emb, _, h_l, capped in expected], (host, rule)
    for a, (_, d, _, _) in zip(got, expected):
        assert parts(a.decomposition) == d, (host, rule)
    for a, b in zip(got, got[1:]):
        assert (a.decomposition is b.decomposition) == (a.embedding == b.embedding)
    return len(got)


def n_of_m_net(rng, procs):
    """A wait-for net: some processes each wait for n of m others."""
    requests = []
    for p in rng.sample(range(procs), rng.randint(1, procs)):
        targets = rng.sample([q for q in range(procs) if q != p], rng.randint(1, min(3, procs - 1)))
        requests.append((p, targets, rng.randint(1, len(targets))))
    vertices, triples = list(range(procs)), []
    for r, (p, targets, n) in enumerate(requests, start=procs):
        vertices.append(r)
        triples += [(p, "_", r), (r, "z", r)] + [(r, "_", t) for t in targets] + [(r, "s", r)] * n
    return Graph.from_triples(vertices, triples)


class TestEdgeFollowingSearch:
    """The edge-following search against the full-scan one it replaced."""

    def test_random_hosts_and_rules(self):
        rng = random.Random(6)
        dropped = no_redex = 0
        for i in range(600):
            host = random_graph(rng, list(range(rng.randint(1, 5))), 8)
            rule = random_deterministic_rule(rng) if i % 2 else random_quasi_rule(rng)
            dropped += assert_search_matches_reference(host, rule)
            no_redex += not find_redexes(host, rule)[0]
        assert dropped > 100 and no_redex > 100

    def test_every_graph_of_deadlock_detection(self):
        # Replays normalize's first-redex choice from each net to its normal form.
        rng = random.Random(9)
        rules = deadlock_rules()
        for procs in (4, 6, 8, 10):
            g = n_of_m_net(rng, procs)
            assert WaitForNet(g).is_valid()
            report = detect_deadlock(g)
            steps = 0
            while True:
                for rule in rules.values():
                    assert_search_matches_reference(g, rule)
                redexes = [r for rule in rules.values() for r in find_redexes(g, rule)[0]]
                if not redexes:
                    break
                g, steps = apply_at(g, redexes[0])[0], steps + 1
            assert (g, steps) == (report.normal_form, len(report.trace))


class TestAgainstEagerSearch:
    """The search that builds no graphs against the eager one it replaced."""

    def test_random_instances(self, monkeypatch):
        rng = random.Random(2009)
        found = sum(assert_like_eager(host, rule) for host, rule, _ in random_instances(rng, 200))
        for i in range(300):
            host = random_graph(rng, list(range(rng.randint(1, 5))), 8)
            rule = random_deterministic_rule(rng) if i % 2 else random_quasi_rule(rng)
            anchors = set(rng.sample(range(6), rng.randint(1, 3))) if i % 3 == 0 else None
            set_map_cap(monkeypatch, (None, 2, 5)[i % 3])
            found += assert_like_eager(host, rule, anchors)
        assert found > 400

    def test_samples(self):
        docs = sample_documents()
        assert sum(assert_like_eager(g, r) for gd in docs for g in gd.graphs.values()
                   for rd in docs for r in rd.rules.values()) > 0

    def test_deadlock_workload_nets(self):
        nets = deadlock_workload_nets()
        assert sum(assert_like_eager(g, rule) for g, _, _ in nets
                   for rule in deadlock_rules().values()) > len(nets)

    def test_dijkstra_scholten_states(self):
        system = dijkstra_scholten_system()
        assert len(system) == 6
        found = dropped = 0
        for g in ds_states():
            for rule in system.values():
                found += assert_like_eager(g, rule)
                dropped += assert_search_matches_reference(g, rule)
        # The loop check drops embeddings that the reference shows have no map.
        assert found > 0 and dropped > 0

    def test_decompose_at(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_graph(rng, list(range(rng.randint(1, 5))), 8)
            vs = rng.sample(sorted(g.vertices), rng.randint(0, len(g.vertices)))
            es = rng.sample(sorted(g.edges), rng.randint(0, min(2, len(g.edges))))
            try:
                expected = eager_decompose_at(g, vs, es)
            except NotASubgraph as exc:
                with pytest.raises(NotASubgraph, match=re.escape(str(exc))):
                    decompose_at(g, vs, es)
            else:
                assert parts(decompose_at(g, vs, es)) == expected


class TestNoGraphsPerEmbedding:
    """Counted, not timed."""

    def test_typed_search_lists_only_adherent_embeddings(self):
        # Every plain vertex of a DS rule has no loop type edge, so the
        # loop check leaves exactly the embeddings that adhere.
        system = dijkstra_scholten_system()
        assert all(rule.deterministic for rule in system.values())
        for g in ds_states():
            for rule in system.values():
                embeddings = find_pattern_embeddings(g, rule.lhs.pattern, rule.lhs.ptype)
                assert embeddings == [r.embedding for r in find_redexes(g, rule)[0]]

    def test_walk_derives_parts_only_for_applied_redexes(self, monkeypatch):
        # A derived part is cached in the decomposition's instance dict.  The
        # walk steps through ``_expand``, which applies, in order, every
        # redex it builds.  Those are, per rule, the first redex per vertex
        # map of a full ``find_redexes`` listing: a spent sender has no send
        # redex to skip.  A step reads the patch off the host, so no redex
        # derives J or M.
        built, expected, applied, listed = [], [], [], [0]
        build, step = rewrite._twin_redexes, rewrite._successor

        def recorded(host, rule, cap):
            out, first = build(host, rule, cap), {}
            for r in find_redexes(host, rule)[0]:
                first.setdefault(frozenset(r.embedding.vmap.items()), r)
                listed[0] += 1
            expected.extend(first.values())
            built.extend(out)
            return out

        def counted(host, redex, *args):
            applied.append(redex)
            return step(host, redex, *args)

        monkeypatch.setattr(rewrite, "_twin_redexes", recorded)
        monkeypatch.setattr(rewrite, "_successor", counted)
        ds_explore(ds_initial_network([(0, 1), (1, 2)], 0), 2)
        assert list(map(id, built)) == list(map(id, applied))
        assert [r.embedding for r in applied] == [r.embedding for r in expected]
        assert len(applied) < listed[0]
        unique = {id(r.decomposition): r.decomposition for r in built}.values()
        derived = sum(("patch" in vars(d)) + ("match" in vars(d)) for d in unique)
        assert applied and derived == 0

    def test_detect_deadlock_derives_no_parts(self, monkeypatch):
        step, applied = rewrite._step, []

        def recorded(g, redex, fresh_base):
            applied.append(redex)
            return step(g, redex, fresh_base)

        monkeypatch.setattr(rewrite, "_step", recorded)
        nets = deadlock_workload_nets()
        for g, _, _ in nets:
            detect_deadlock(g)
        assert len(applied) > len(nets)
        assert not any("patch" in vars(r.decomposition) or "match" in vars(r.decomposition)
                       for r in applied)


class TestEmbeddings:
    def test_triangle_pattern_has_one_embedding(self):
        pattern = Graph.from_triples([3, 4, 5],
                                     [(3, "b", 4), (4, "a", 5), (5, "a", 3)])
        host = Graph.from_triples(
            [3, 4, 5, 6, 7],
            [(3, "b", 4), (4, "a", 5), (5, "a", 3),
             (4, "b", 6), (7, "a", 5), (5, "c", 3), (6, "b", 7)],
        )
        embeddings = find_pattern_embeddings(host, pattern)
        assert len(embeddings) == 1
        assert rename_graph(pattern, embeddings[0]) == Graph(
            {3, 4, 5}, {e: host.edges[e] for e in (0, 1, 2)})

    def test_empty_pattern_one_embedding(self):
        assert find_pattern_embeddings(hub_host(), EMPTY_GRAPH) == [Renaming()]
        assert find_pattern_embeddings(EMPTY_GRAPH, EMPTY_GRAPH) == [Renaming()]

    def test_loop_pattern_matches_hub_only(self):
        pattern = Graph([0], [(0, 0, "a", 0)])
        embeddings = find_pattern_embeddings(hub_host(), pattern)
        assert [e.vmap[0] for e in embeddings] == [2]

    def test_parallel_host_edges_give_multiple_embeddings(self):
        pattern = Graph([0, 1], [(0, 0, "x", 1)])
        host = Graph([5, 6], [(0, 5, "x", 6), (1, 5, "x", 6)])
        embeddings = find_pattern_embeddings(host, pattern)
        assert len(embeddings) == 2
        assert {e.emap[0] for e in embeddings} == {0, 1}

    def test_injective_on_vertices(self):
        pattern = Graph([0, 1])  # two vertices, no edges
        host = Graph([5])
        assert find_pattern_embeddings(host, pattern) == []

    def test_canonical_order(self):
        pattern = Graph([0])
        host = Graph([3, 1, 2])
        images = [e.vmap[0] for e in find_pattern_embeddings(host, pattern)]
        assert images == [1, 2, 3]

    def test_long_path_pattern_needs_no_recursion(self):
        # Distinct labels leave one candidate per pattern vertex, so the
        # search is linear; its depth is the pattern's 300 vertices.
        n = 300
        pattern = Graph.from_triples(range(n), [(i, f"l{i}", i + 1) for i in range(n - 1)])
        host = Graph.from_triples(range(1000, 1000 + n),
                                  [(1000 + i, f"l{i}", 1001 + i) for i in range(n - 1)])
        with shallow_recursion():
            embeddings = find_pattern_embeddings(host, pattern)
        assert len(embeddings) == 1
        assert rename_graph(pattern, embeddings[0]) == host


    def test_same_label_path_is_not_cubic(self):
        # With one label every host vertex fits every pattern vertex, so a
        # search that scans the host per level is cubic (150 vertices took
        # seconds); following edges makes each wrong start die in place.
        n = 300
        pattern = Graph.from_triples(range(n), [(i, "a", i + 1) for i in range(n - 1)])
        host = rename_graph(pattern, Renaming({v: v + 1000 for v in range(n)},
                                              {e: e + 1000 for e in range(n - 1)}))
        start = time.perf_counter()
        with shallow_recursion():
            embeddings = find_pattern_embeddings(host, pattern)
        assert time.perf_counter() - start < 5
        assert [rename_graph(pattern, emb) for emb in embeddings] == [host]


class TestFindRedexes:
    def test_strict_rule_blocked_by_patch(self):
        redexes, _ = find_redexes(hub_host(), strict_delete_rule())
        assert redexes == []

    def test_permissive_rule_has_one_redex(self):
        redexes, _ = find_redexes(hub_host(), delete_rule())
        assert len(redexes) == 1
        assert redexes[0].embedding.vmap[0] == 2

    def test_extra_loop_blocks_but_copy_allows(self):
        host = hub_host_extra_loop()
        assert find_redexes(host, delete_rule())[0] == []
        redexes, _ = find_redexes(host, copy_vertex_rule())
        assert len(redexes) == 1

    def test_strict_rule_applies_to_isolated_loop_vertex(self):
        host = Graph([9], [(0, 9, "a", 9)])
        redexes, _ = find_redexes(host, strict_delete_rule())
        assert len(redexes) == 1
        assert redexes[0].h_l == {}

    def test_agrees_with_naive_oracle(self):
        rules = [strict_delete_rule(), delete_rule(), copy_vertex_rule()]
        hosts = [
            EMPTY_GRAPH,
            Graph([9], [(0, 9, "a", 9)]),
            hub_host(),
            hub_host_extra_loop(),
            Graph.from_triples([0, 1], [(0, "a", 0), (0, "a", 1), (1, "b", 0)]),
            Graph.from_triples([0, 1, 2], [(0, "a", 0), (1, "a", 1), (1, "d", 2)]),
        ]
        for rule in rules:
            for host in hosts:
                got = bool(find_redexes(host, rule)[0])
                assert got == naive_redex_exists(host, rule), (rule, host)

    def test_agrees_with_reference_split_and_maps(self):
        rng = random.Random(2003)
        pairs = [(host, rule) for host, rule, _ in random_instances(rng, 150)]
        for _ in range(150):
            host = random_graph(rng, list(range(rng.randint(1, 4))), 6)
            pairs.append((host, random_quasi_rule(rng)))
        docs = sample_documents()
        pairs += [(g, r) for gd in docs for g in gd.graphs.values()
                  for rd in docs for r in rd.rules.values()]
        assert sum(bool(find_redexes(h, r)[0]) for h, r in pairs) > 200
        for host, rule in pairs:
            assert_search_matches_reference(host, rule)

    def test_deterministic_rule_one_redex_per_embedding(self):
        host = hub_host()
        rule = copy_vertex_rule()
        redexes, _ = find_redexes(host, rule)
        embeddings = find_pattern_embeddings(host, rule.lhs.pattern)
        per_embedding = Counter(tuple(sorted(r.embedding.vmap.items()))
                                for r in redexes)
        assert all(n == 1 for n in per_embedding.values())
        assert len(redexes) <= len(embeddings)

    def test_redex_count_invariant_under_renaming(self):
        host = hub_host()
        phi = Renaming({v: v + 40 for v in host.vertices},
                       {e: e + 40 for e in host.edges})
        renamed = rename_graph(host, phi)
        for rule in (delete_rule(), copy_vertex_rule(), strict_delete_rule()):
            assert len(find_redexes(host, rule)[0]) == \
                len(find_redexes(renamed, rule)[0])

    def test_cap_flag_propagates(self, monkeypatch):
        monkeypatch.setenv("PGR_MAX_MAPS", "3")
        host = Graph([0, 1], [(i, 0, "a", 1) for i in range(4)])
        rule = build_rule(Graph([0, 1]),
                          {"p": (0, 1), "q": (0, 1)},
                          Graph([10, 11]), [(10, 11, "p")])
        redexes, truncated = find_redexes(host, rule)
        assert truncated
        assert len(redexes) == 3

    def test_map_cap_is_read_once_per_call(self, monkeypatch):
        # Counted: one read per call on a DS state, however many embeddings
        # it lists; ``adherence_maps`` takes the cap and reads none.
        states, cap, reads = ds_states()[::40], matching.default_map_cap, []

        def counted():
            reads.append(1)
            return cap()

        def unread():
            raise AssertionError("the cap is read by find_redexes only")

        monkeypatch.setattr(matching, "default_map_cap", counted)
        monkeypatch.setattr(rules, "default_map_cap", unread)
        listed = []
        for g in states:
            for rule in dijkstra_scholten_system().values():
                listed.append(len(find_redexes(g, rule)[0]))
                assert len(reads) == len(listed)
        assert max(listed) > 1

    def test_map_cap_is_read_once_per_normalize_call(self, monkeypatch):
        # Counted: ``RedexSets`` reads the cap once, when built, and hands
        # it to every search and re-read of the maps for the whole run.
        cap, reads = matching.default_map_cap, []

        def counted():
            reads.append(1)
            return cap()

        monkeypatch.setattr(matching, "default_map_cap", counted)
        steps = 0
        for calls, (g, _, _) in enumerate(deadlock_workload_nets()[::4], 1):
            steps += len(rewrite.normalize(g, deadlock_rules())[1])
            assert len(reads) == calls
        assert steps > 10 * calls


class TestContextOf:
    def test_cases(self):
        c = Graph([9])
        m = Graph([5, 6], [(0, 5, "a", 6)])
        j = Graph([5, 6, 9], [(20, 9, "x", 5), (21, 5, "y", 9), (22, 5, "z", 6)])
        assert validate_patch(c, j, m) == []
        t = PatchType(m, {0: (CONTEXT, 5), 1: (5, CONTEXT), 2: (5, 6)})
        h = {20: 0, 21: 1, 22: 2}
        assert context_of(20, h, j, t) == {9}
        assert context_of(21, h, j, t) == {9}
        assert context_of(22, h, j, t) == frozenset()
