"""The certificate checks against their previous versions (``previous_verify``):
the verdicts of ``verify_step`` and its two halves on genuine and tampered
certificates, the oracle's outputs on their redexes (against
``previous_oracle``), and the messages of ``validate_patch`` and
``patch_compose`` on parts that break each condition in turn.  Also that
neither ``verify_step`` nor the oracle derives a part of a decomposition,
on those steps and on a large ring, and that the oracle's pairing gives
``apply_at``'s result through ``_derived``."""

import random
from dataclasses import replace

import previous_verify as previous
from previous_verify import previous_checks

from fixtures import (
    invert_pull_rule,
    parallel_drop_rule,
    parallel_edge_host,
    random_graph,
    random_instances,
    random_quasi_rule,
    redirect_rule,
    sample_documents,
    sender_host,
)
from pgr import rewrite
from pgr.exceptions import InvalidPatch, PgrError
from pgr.graph import (Graph, PatchDecomposition, Renaming, decompose_at, patch_compose,
                       validate_patch)
from pgr.matching import Redex, find_redexes
from pgr.rewrite import (
    apply_at,
    brute_force_step_oracle,
    verify_step,
)
from pgr.rules import CONTEXT, build_rule

VARIANTS = 3  # tampered certificates of each kind per genuine one


def step_sources():
    """(host, redex) pairs: seeded deterministic and quasi steps, the
    samples' rules on their graphs, the parallel-drop rule on 1 to 8
    parallel edges, and a hub with 2 to 4 senders under a rule that keeps
    their edges and one that reverses them, so each context end has as many
    candidates as senders."""
    rng = random.Random(4711)
    for host, _, redex in random_instances(rng, 120):
        yield host, redex
    for _ in range(60):
        host = random_graph(rng, list(range(rng.randint(1, 3))), 4)
        yield from ((host, r) for r in find_redexes(host, random_quasi_rule(rng))[0][:2])
    docs = sample_documents()
    for g in (g for doc in docs for g in doc.graphs.values()):
        for rule in (r for doc in docs for r in doc.rules.values()):
            yield from ((g, r) for r in find_redexes(g, rule)[0])
    for n in range(1, 9):
        host = parallel_edge_host(n)
        yield from ((host, r) for r in find_redexes(host, parallel_drop_rule())[0])
    for k in range(2, 5):
        host = sender_host(k)
        for rule in (redirect_rule(), invert_pull_rule()):
            yield from ((host, r) for r in find_redexes(host, rule)[0])


def with_left(redex, h_l):
    return Redex(redex.rule, redex.embedding, redex.decomposition, h_l)


def tampered_redexes(redex):
    """The redex itself, then its left map with one entry re-pointed to
    another left type edge, and with one entry dropped, its patch ids and
    left map both without that entry, and its patch ids alone without it."""
    yield redex
    types = sorted(redex.rule.lhs.ptype.edges)
    repointed = [with_left(redex, {**redex.h_l, j: other})
                 for j, te in sorted(redex.h_l.items()) for other in types if other != te]
    yield from repointed[:VARIANTS]
    if redex.h_l:
        j = min(redex.h_l)
        short = {k: v for k, v in redex.h_l.items() if k != j}
        yield with_left(redex, short)
        d = redex.decomposition
        missed = PatchDecomposition(d._host, d.match.vertices, frozenset(d.match.edges),
                                    sorted(short))
        yield Redex(redex.rule, redex.embedding, missed, short)
        yield Redex(redex.rule, redex.embedding, missed, redex.h_l)


def tampered_certificates(host, result, cert):
    """(host, result, certificate) triples: the genuine one, each redex of
    ``tampered_redexes`` (those whose left map is total on their patch ids
    also with the step ``apply_at`` takes there, which may leave an edge
    dangling or put a new edge's context end on the match), re-pointed
    right map entries, swapped sigma values, an extra sigma key, a wrong
    host, and ``tampered_parts``."""
    def with_cert(**parts):
        return host, result, replace(cert, **parts)

    for redex in tampered_redexes(cert.redex):
        yield with_cert(redex=redex)
        if redex is not cert.redex and redex.h_l.keys() == set(redex.decomposition._je):
            yield host, *apply_at(host, redex)
    types = sorted(cert.redex.rule.rhs.ptype.edges)
    repointed = [{**cert.h_r, e: other}
                 for e, te in sorted(cert.h_r.items()) for other in types if other != te]
    for h_r in repointed[:VARIANTS]:
        yield with_cert(h_r=h_r)
    news = sorted(cert.sigma)
    swaps = [(a, b) for a in news for b in news if a < b and cert.sigma[a] != cert.sigma[b]]
    for a, b in swaps[:VARIANTS]:
        yield with_cert(sigma={**cert.sigma, a: cert.sigma[b], b: cert.sigma[a]})
    olds = sorted(cert.redex.decomposition.patch.edges)
    yield with_cert(sigma={**cert.sigma, result.max_id() + 1: olds[0] if olds else 0})
    extra = host.max_id() + 1
    yield Graph(host.vertices | {extra}, host.edges), result, cert
    yield result, host, cert
    yield from tampered_parts(host, result, cert)


def tampered_parts(host, result, cert):
    """Tamperings that a check on the step's parts must look for itself: an
    extra vertex in the result, and one in J'; an old patch edge kept
    in the result; a context edge dropped or relabelled; a new match edge
    relabelled; a new patch edge re-ended at another context vertex in J'
    and the result alike; a new match vertex moved onto a context vertex
    everywhere; patch ids that repeat one id; and the ``reused_ids``
    tamperings."""
    d = cert.redex.decomposition
    extra = result.max_id() + 1
    yield host, Graph._trusted(result.vertices | {extra}, result.edges), cert
    yield host, result, replace(cert, j_prime=Graph._trusted(cert.j_prime.vertices | {extra},
                                                             cert.j_prime.edges))
    if d._je:
        yield host, Graph._trusted(result.vertices, {**result.edges,
                                                     d._je[0]: host.edges[d._je[0]]}), cert
    context = sorted(e for e in host.edges if e not in d._me and e not in d._je)
    if context:
        e = context[0]
        s, lab, t = result.edges[e]
        for edges in ({k: v for k, v in result.edges.items() if k != e},
                      {**result.edges, e: (s, lab + "'", t)}):
            yield host, Graph._trusted(result.vertices, edges), cert
    if cert.redex.rule.rhs.pattern.edges:
        e = cert.rhs_instance.emap[min(cert.redex.rule.rhs.pattern.edges)]
        s, lab, t = result.edges[e]
        yield host, Graph._trusted(result.vertices, {**result.edges, e: (s, lab + "'", t)}), cert
    others = sorted(host.vertices - d._mv)
    t_r = cert.redex.rule.rhs.ptype.edges
    for e, (s, lab, t) in sorted(cert.j_prime.edges.items()):
        ts, tt = t_r[cert.h_r[e]]
        moved = [v for v in others if v != (s if ts == CONTEXT else t)]
        if CONTEXT in (ts, tt) and moved:
            triple = (moved[0], lab, t) if ts == CONTEXT else (s, lab, moved[0])
            yield (host, Graph._trusted(result.vertices, {**result.edges, e: triple}),
                   replace(cert, j_prime=patch_graph({**cert.j_prime.edges, e: triple})))
            break
    inst = cert.rhs_instance
    if others and inst.vmap:
        p = min(inst.vmap)
        v, c = inst.vmap[p], others[0]

        def move(edges):
            return {e: (c if a == v else a, lab, c if b == v else b)
                    for e, (a, lab, b) in edges.items()}
        yield (host, Graph._trusted((result.vertices - {v}) | {c}, move(result.edges)),
               replace(cert, rhs_instance=Renaming({**inst.vmap, p: c}, inst.emap),
                       j_prime=patch_graph(move(cert.j_prime.edges))))
    if d._je:
        repeated = PatchDecomposition(d._host, d._mv, d._me, [*d._je, d._je[0]])
        yield host, result, replace(cert, redex=replace(cert.redex, decomposition=repeated))
    yield from (triple for _, triple in reused_ids(host, result, cert))


def reused_ids(host, result, cert):
    """(kind, (host, result, certificate)) pairs: the smallest new patch edge
    renamed, in the result, J', h_r and sigma alike, onto the smallest id of
    each kind that there is: a context edge, a new match edge (both taken),
    a removed patch edge and a removed match edge (both free again)."""
    if not cert.j_prime.edges:
        return
    d, e = cert.redex.decomposition, min(cert.j_prime.edges)
    kinds = {"context": [x for x in host.edges if x not in d._me and x not in d._je],
             "new match": list(cert.rhs_instance.emap.values()),
             "removed patch": d._je, "removed match": d._me}
    for kind, ids in kinds.items():
        if ids:
            x = min(ids)

            def renamed(edges):
                return {x if k == e else k: v for k, v in edges.items()}
            yield kind, (host, Graph._trusted(result.vertices, renamed(result.edges)),
                         replace(cert, j_prime=patch_graph(renamed(cert.j_prime.edges)),
                                 h_r=renamed(cert.h_r), sigma=renamed(cert.sigma)))


def patch_graph(edges):
    """A patch graph: the given edges and their ends."""
    return Graph._trusted(frozenset(x for s, _, t in edges.values() for x in (s, t)), edges)


def verdicts(host, result, cert):
    """Each half is looked up on ``rewrite`` at the call, so that
    ``previous_checks()`` swaps it; the right half reads the host that the
    decomposition splits, which the left half checks is ``host``."""
    return (verify_step(host, result, cert), rewrite._redex_ok(host, cert.redex),
            rewrite._result_ok(cert.redex.decomposition._host, result, cert))


def oracle(host, redex, run=brute_force_step_oracle):
    try:
        return run(host, redex)
    except PgrError as exc:
        return type(exc).__name__


def test_verdicts_equal_the_previous_checks():
    seen = {True: 0, False: 0}
    for host, redex in step_sources():
        result, cert = apply_at(host, redex)
        assert verify_step(host, result, cert)
        for triple in tampered_certificates(host, result, cert):
            got = verdicts(*triple)
            with previous_checks():
                assert got == verdicts(*triple), triple
            seen[got[0]] += 1
    assert seen[True] > 500 and seen[False] > 2000


def test_oracle_outputs_equal_the_previous_checks():
    outputs = set()
    for host, redex in step_sources():
        for tampered in tampered_redexes(redex):
            got = oracle(host, tampered)
            with previous_checks():
                assert got == oracle(host, tampered, previous.previous_oracle)
            outputs.add(got == [])
    assert outputs == {True, False}


def test_new_ids_reuse_only_removed_ids():
    # A new id may take the id of a removed patch or match edge, but not
    # that of a context edge or of another new edge.
    verdicts_by_kind = {}
    for host, redex in step_sources():
        for kind, triple in reused_ids(host, *apply_at(host, redex)):
            verdicts_by_kind.setdefault(kind, set()).add(verify_step(*triple))
    assert verdicts_by_kind == {"context": {False}, "new match": {False},
                                "removed patch": {True}, "removed match": {True}}


def test_oracle_derives_the_step_result(monkeypatch):
    # The pairing the oracle builds gives, through ``_derived``, the result
    # of ``apply_at`` id for id, edge order included.
    derived, derive = [], rewrite._derived

    def kept(*args):
        derived.append(derive(*args))
        return derived[-1]

    monkeypatch.setattr(rewrite, "_derived", kept)
    for host, redex in step_sources():
        derived.clear()
        brute_force_step_oracle(host, redex)
        vertices, edges = derived.pop()
        result = apply_at(host, redex)[0]
        assert vertices == result.vertices
        assert list(edges.items()) == list(result.edges.items())


def ring_step(n):
    """The ring of ``perfbench/scaling.py``: n vertices with an a-loop each,
    joined in a ring by b-edges (ids n to 2n-1, i -b-> i+1), and the rule
    that drops an a-loop and keeps the vertex's other edges; the step at
    vertex n // 2."""
    host = Graph.from_triples(range(n), [(i, "a", i) for i in range(n)]
                              + [(i, "b", (i + 1) % n) for i in range(n)])
    rule = build_rule(Graph([0], [(0, 0, "a", 0)]), {"in": (CONTEXT, 0), "out": (0, CONTEXT)},
                      Graph([10]), [(CONTEXT, 10, "in"), (10, CONTEXT, "out")])
    return host, *apply_at(host, find_redexes(host, rule)[0][n // 2])


def test_verify_step_derives_no_part(monkeypatch):
    # Both halves read the host and the certificate; neither derives the
    # decomposition's C, J or M, so the check costs the step, not the host.
    # Nor does the oracle, which derives its result by ``_derived`` too.
    steps = [(host, *apply_at(host, redex)) for host, redex in step_sources()]
    steps.append(ring_step(3200))

    def derived(self):
        raise AssertionError("a check derived a part of the decomposition")

    for part in ("context", "patch", "match"):
        monkeypatch.setattr(PatchDecomposition, part, property(derived))
    assert all(verify_step(*step) for step in steps)
    assert all(brute_force_step_oracle(host, cert.redex) for host, _, cert in steps)


def test_ring_result_missing_a_far_context_edge_is_rejected():
    n = 3200
    host, result, cert = ring_step(n)
    for far in (0, n):  # the a-loop at 0 and the b-edge 0 -> 1, far from n // 2
        edges = {e: triple for e, triple in result.edges.items() if e != far}
        assert not verify_step(host, Graph._trusted(result.vertices, edges), cert)


def broken_parts(rng, kind):
    """C, J and M of a decomposition of a random graph, with condition
    ``kind`` of ``validate_patch`` broken (0: none; 1 to 6 in its message
    order).  Broken parts are built unchecked: the checked constructor
    would refuse a patch edge whose end is off the patch's vertex set."""
    g = random_graph(rng, list(range(rng.randint(1, 5))), 6)
    mv = set(rng.sample(sorted(g.vertices), rng.randint(1, len(g.vertices))))
    me = [e for e, (s, _, t) in g.edges.items() if s in mv and t in mv and rng.random() < 0.5]
    d = decompose_at(g, mv, me)
    c, j, m = d.context, d.patch, d.match
    v, fresh = rng.choice(sorted(mv)), g.max_id() + 1
    if kind in (2, 3) and not m.edges:
        m = Graph._trusted(m.vertices, {**m.edges, fresh + 2: (v, "a", v)})
    if kind == 1:
        c = Graph._trusted(c.vertices | {v}, c.edges)
    elif kind == 2:
        e = rng.choice(sorted(m.edges))
        c = Graph._trusted(c.vertices | {fresh}, {**c.edges, e: (fresh, "b", fresh)})
    elif kind == 3:
        e = rng.choice(sorted(set(c.edges) | set(m.edges)))
        j = Graph._trusted(j.vertices | {v}, {**j.edges, e: (v, "c", v)})
    elif kind == 4:
        j = Graph._trusted(j.vertices | {fresh}, {**j.edges, fresh + 1: (fresh, "a", v)})
    elif kind == 5:
        j = Graph._trusted(j.vertices | {fresh}, j.edges)
    elif kind == 6:
        j = Graph._trusted(j.vertices - {v}, {**j.edges, fresh + 1: (v, "a", v)})
    return c, j, m


PREFIXES = ["context and match share vertices", "context and match share edges",
            "patch edges reuse context/match edge ids", "patch edge ",
            "patch has isolated vertices", "patch endpoints missing"]


def test_patch_messages_equal_the_previous_checks():
    rng = random.Random(1618)
    for i in range(1400):
        kind = i % 7
        c, j, m = broken_parts(rng, kind)
        messages = validate_patch(c, j, m)
        assert messages == previous.validate_patch(c, j, m)
        if kind == 0:
            assert messages == []
            composed = patch_compose(c, j, m)
            expected = previous.patch_compose(c, j, m)
            assert list(composed.edges.items()) == list(expected.edges.items())
            assert composed == expected
            continue
        assert any(msg.startswith(PREFIXES[kind - 1]) for msg in messages)
        raised = []
        for compose in (patch_compose, previous.patch_compose):
            try:
                compose(c, j, m)
            except InvalidPatch as exc:
                raised.append(exc.violations)
        assert raised == [messages, messages]
