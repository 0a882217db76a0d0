"""The compiled search plans against the search they replaced.

``previous_embeddings`` is the interpreted search that compiled plans
replace.  Drawn multigraphs (parallel edges, loops, twins) and patterns of
one to four vertices must give its lists, in order, with and without a left
type and anchors; the listing of one embedding per vertex map must keep the
first of each.  The generated code must hold no label or id of the pattern
as source text, and a pattern deeper than the nesting one function allows
must run without recursion.
"""

import builtins
import math
import types
from collections import Counter

from fixtures import PROPERTY, shallow_recursion
from hypothesis import assume, given
from hypothesis import strategies as st
from previous_search import previous_embeddings

from pgr import matching
from pgr.graph import Graph
from pgr.matching import find_pattern_embeddings
from pgr.rules import CONTEXT, PatchType

BASE = 10**9  # pattern vertex ids that no generated code may hold as constants


@st.composite
def multigraphs(draw, vertices, labels, max_edges):
    """A tree of random edges over ``vertices``, up to ``max_edges`` more
    (loops and parallel edges included), one edge drawn twice, and possibly
    a twin of the first vertex: a new vertex with a copy of its edges."""
    end, lab, vertices = st.sampled_from(vertices), st.sampled_from(labels), list(vertices)
    triples = [(u, draw(lab), v) if draw(st.booleans()) else (v, draw(lab), u)
               for k, v in enumerate(vertices) if k for u in [draw(st.sampled_from(vertices[:k]))]]
    size = draw(st.integers(0, max_edges))  # drawn, so that sizes spread evenly
    triples += draw(st.lists(st.tuples(end, lab, end), min_size=size, max_size=size))
    triples += [draw(st.sampled_from(triples))] if triples else []
    if draw(st.booleans()):
        x, twin = vertices[0], max(vertices) + 1
        vertices.append(twin)
        triples += [(twin if s == x else s, lab, twin if t == x else t)
                    for s, lab, t in triples if x in (s, t)]
    return Graph.from_triples(vertices, triples)


@st.composite
def searches(draw):
    """A pattern of one to four vertices over two or three labels, a left
    type over it, a host that holds its edges under a map of its vertices
    (not always injective) next to edges of its own, and an anchor set that
    may hold an id off the host; the full listing stays small."""
    labels = "abc"[:draw(st.integers(2, 3))]
    pattern = draw(multigraphs([BASE + i for i in range(draw(st.integers(1, 3)))], labels, 3))
    host = draw(multigraphs(range(draw(st.integers(len(pattern.vertices), 6))), labels, 5))
    image = dict(zip(sorted(pattern.vertices), draw(st.permutations(sorted(host.vertices)))))
    if draw(st.booleans()):  # not always injective
        image[draw(st.sampled_from(sorted(pattern.vertices)))] = draw(st.sampled_from(
            sorted(host.vertices)))
    host = Graph.from_triples(host.vertices, list(host.edges.values()) + [
        (image[s], lab, image[t]) for s, lab, t in pattern.edges.values()
        if s in image and t in image])
    have, need = (Counter(lab for _, lab, _ in g.edges.values()) for g in (host, pattern))
    lone = len(pattern.vertices - {v for s, _, t in pattern.edges.values() for v in (s, t)})
    assume(len(host.vertices) ** lone * math.prod(  # a bound on the embeddings
        math.perm(have[lab], n) for lab, n in need.items()) <= 2000)
    ends = sorted(pattern.vertices) + [CONTEXT]
    pairs = draw(st.lists(st.sampled_from(
        [(s, t) for s in ends for t in ends if (s, t) != (CONTEXT, CONTEXT)]), max_size=4))
    ptype = PatchType(pattern, dict(enumerate(pairs)))
    anchors = draw(st.sets(st.integers(0, max(host.vertices) + 1), max_size=3))
    return host, pattern, ptype, anchors


@PROPERTY
@given(searches())
def test_embeddings_equal_the_previous_search(case):
    host, pattern, ptype, anchors = case
    for t in (None, ptype):
        for a in (None, anchors):
            assert find_pattern_embeddings(host, pattern, t, a) == previous_embeddings(
                host, pattern, t, a)


@PROPERTY
@given(searches())
def test_one_embedding_per_vertex_map_is_the_first_listed(case):
    host, pattern, ptype, _ = case
    for t in (None, ptype):
        first = {}
        for r in find_pattern_embeddings(host, pattern, t):
            first.setdefault(frozenset(r.vmap.items()), r)
        assert [r for _, r in matching._embeddings(host, pattern, t, None, True)] == list(
            first.values())


def generated(search):
    """A compiled plan's function and the generated functions it closes over."""
    return [search] + [cell.cell_contents for cell in search.__closure__
                       if isinstance(cell.cell_contents, types.FunctionType)]


def code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def atoms(const):
    """The values inside a constant, tuples and frozensets opened."""
    if isinstance(const, (tuple, frozenset)):
        for x in const:
            yield from atoms(x)
    else:
        yield const


# Labels that would break out of a string literal or run code if they were
# pasted into the generated source.
HOSTILE = ["'", '"', "\\", "\n", "{}", "__import__('os')", "a'\"\\\n{}__import__('os')"]


def hostile_case(k):
    """A pattern on ids above ``BASE`` with two hostile labels, its left
    type, and a host that holds it twice plus a spare parallel edge."""
    x, y = HOSTILE[k % len(HOSTILE)], HOSTILE[(k + 1) % len(HOSTILE)]
    p = [BASE + k + i for i in range(3)]
    pattern = Graph.from_triples(p, [(p[0], x, p[1]), (p[1], y, p[2]), (p[2], x, p[2]),
                                     (p[0], y, p[2])])
    ptype = PatchType(pattern, {1: (CONTEXT, p[0]), 2: (p[2], CONTEXT)})
    host = Graph.from_triples(range(7), [(0, x, 1), (1, y, 2), (2, x, 2), (0, y, 2), (0, y, 2),
                                         (3, x, 4), (4, y, 5), (5, x, 5), (3, y, 5), (6, x, 3)])
    return host, pattern, ptype


def test_generated_code_holds_no_label_or_id(monkeypatch):
    # Every code object compiled for the matchers and plans below, nested
    # ones included, holds no string constant and no pattern vertex id:
    # labels, count keys and ids reach the code only through the bound
    # tuple, in the closures of the functions it makes.
    compiled = []

    def recorded(*args):
        compiled.append(builtins.compile(*args))
        return compiled[-1]

    matching._made.cache_clear()  # so that every text is compiled here
    monkeypatch.setattr(matching, "compile", recorded, raising=False)
    cases = [hostile_case(k)[1:] for k in range(len(HOSTILE))]
    cases.append((deep_case(3 * matching._NESTED + 1)[0], None))
    functions, ids = [], set()
    for pattern, ptype in cases:
        ids |= pattern.vertices
        roots = sorted(pattern.vertices)[:3]  # a plan per root, three suffice
        for m in {matching._Matcher(pattern, t) for t in (None, ptype)}:
            functions += [m.admits] + [f for root in roots for f in generated(m.plan(root))]
    consts = [x for code in compiled for c in code_objects(code) for const in c.co_consts
              if not isinstance(const, types.CodeType) for x in atoms(const)]
    assert len(compiled) > len(cases) and not [
        x for x in consts if isinstance(x, str) or x in ids]
    bound = {x for f in functions for cell in f.__closure__ for x in atoms(cell.cell_contents)}
    assert set(HOSTILE) | ids <= bound


def test_hostile_labels_give_the_previous_embeddings():
    for k in range(len(HOSTILE)):
        host, pattern, ptype = hostile_case(k)
        for t in (None, ptype):
            for anchors in (None, {1}, {4, 6}):
                got = find_pattern_embeddings(host, pattern, t, anchors)
                assert got == previous_embeddings(host, pattern, t, anchors)
        assert find_pattern_embeddings(host, pattern, ptype)


def deep_case(n):
    """A branching pattern of ``n`` vertices (a binary tree over labels a
    and b, with a loop and a non-tree edge) and a host that holds it once,
    next to a spare component."""
    triples = [((i - 1) // 2, "ab"[i % 2], i) for i in range(1, n)] + [(0, "a", 0), (n - 1, "b", 1)]
    pattern = Graph.from_triples([BASE + i for i in range(n)],
                                 [(BASE + s, lab, BASE + t) for s, lab, t in triples])
    spare = [(n, "a", n + 1), (n + 1, "b", n), (n, "a", n)]
    return pattern, Graph.from_triples(range(n + 2), triples + spare)


def test_a_pattern_deeper_than_one_function_needs_no_recursion():
    # CPython refuses more than 20 nested loops in one function, so a plan
    # of 64 vertices spans four generated functions, walked by a stack.  The
    # closed type admits the anchor 0 at one pattern vertex only.
    pattern, host = deep_case(64)
    closed = PatchType(pattern, {})
    assert len(pattern.vertices) > 3 * matching._NESTED
    with shallow_recursion():
        for t, anchors in ((None, None), (closed, None), (closed, {0, 65})):
            got = find_pattern_embeddings(host, pattern, t, anchors)
            assert len(got) == 1 and got == previous_embeddings(host, pattern, t, anchors)


def test_images_stay_distinct_across_generated_functions():
    # A path of 40 a-edges has no injective image in a 37-cycle, though a
    # map that forgot the images of an earlier function would wrap around;
    # a 45-cycle holds it once per start.
    path = Graph.from_triples(range(41), [(i, "a", i + 1) for i in range(40)])
    for n, count in ((37, 0), (45, 45)):
        cycle = Graph.from_triples(range(n), [(i, "a", (i + 1) % n) for i in range(n)])
        with shallow_recursion():
            got = find_pattern_embeddings(cycle, path)
        assert len(got) == count and got == previous_embeddings(cycle, path)
