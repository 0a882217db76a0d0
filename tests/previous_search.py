"""The embedding search as it was before each left scheme got a matcher of
its own: the needs and plans kept in content-keyed caches, the needs read
through ``_side`` lists, and a plan started at every (anchor, pattern
vertex) pair.  ``previous_embeddings`` is the reference that
``find_pattern_embeddings`` must equal, list for list and in order.
"""

import functools
import itertools
from collections import Counter
from collections.abc import Set

from pgr.graph import Graph, Renaming
from pgr.matching import _embedding_key
from pgr.rules import PatchType


def _side(g: Graph, v: int, out: bool | None) -> list[int]:
    """The out-edges (True), in-edges (False) or loops (None) of ``v``."""
    if out is None:
        return [e for e in g.out_edges(v) if g.edges[e][2] == v]
    return g.out_edges(v) if out else g.in_edges(v)


# The host-independent parts of a search are kept per pattern (and type
# shapes) across calls; both are read-only once built.
@functools.lru_cache(maxsize=256)
def _needs(pattern: Graph, shapes: frozenset | None) -> dict[int, list[tuple]]:
    """Per pattern vertex, ``(out, label, n)``: its image has at least n such
    edges on that ``_side``, or, for label None, exactly n edges there.  With
    ``shapes``, the endpoint pairs of a left patch type, the sides and loops
    that no type edge opens must hold exactly the pattern's edges."""
    need: dict[int, list[tuple]] = {v: [] for v in pattern.vertices}
    for v, out in itertools.product(pattern.vertices, (True, False)):
        es = _side(pattern, v, out)
        if shapes is not None and all(pair[not out] != v for pair in shapes):
            need[v].append((out, None, len(es)))
        need[v] += [(out, lab, n) for lab, n in Counter(pattern.label(e) for e in es).items()]
        if shapes is not None and not out and (v, v) not in shapes:
            need[v].append((None, None, len(_side(pattern, v, None))))
    return need


@functools.lru_cache(maxsize=1024)
def _plan(pattern: Graph, roots: tuple[int, ...]):
    """Breadth-first order over ``pattern``, one component after another,
    each from the first of ``roots`` in it.  ``via[v]`` is the placed
    neighbour, label and direction of the pattern edge that reached v (None
    for a component root); ``checks[v]`` lists the edge multiplicities
    between v and the vertices placed before it."""
    order: list[int] = []
    via: dict[int, tuple | None] = {}
    for root in roots:
        if root not in via:
            via[root] = None
            queue = [root]
            for v in queue:
                for e in sorted(pattern.incident_edges(v)):
                    s, lab, t = pattern.edges[e]
                    if (w := t if s == v else s) not in via:
                        via[w] = (v, lab, s == v)
                        queue.append(w)
            order += queue
    checks: dict[int, list] = {v: [] for v in order}
    for (s, lab, t), n in Counter(pattern.edges.values()).items():
        checks[max(s, t, key=order.index)].append((s, lab, t, n))
    return order, via, checks


def _between(host: Graph, hs: int, lab: str, ht: int) -> list[int]:
    edges = host.edges
    return [e for e in host.out_edges(hs) if edges[e] == (hs, lab, ht)]


def _vertex_maps(host: Graph, need, plan, start, used: set[int]) -> list[dict[int, int]]:
    """Injective vertex maps along ``plan`` that keep every need and edge
    multiplicity and avoid ``used``; a component root takes its candidates
    from ``start(v)``, every later vertex from the edges of the image of the
    neighbour that reached it."""
    order, via, checks = plan
    edges = host.edges
    used = set(used)

    def candidates(v):
        if via[v] is None:
            return iter(start(v))
        u, lab, out = via[v]
        es = host.out_edges(vmap[u]) if out else host.in_edges(vmap[u])
        return iter(dict.fromkeys(edges[e][2 if out else 0] for e in es if edges[e][1] == lab))

    def fits(v, w):
        return all(len(es) == n if lab is None else sum(edges[e][1] == lab for e in es) >= n
                   for out, lab, n in need[v] for es in [_side(host, w, out)]) and \
            all(len(_between(host, vmap[s], lab, vmap[t])) >= n for s, lab, t, n in checks[v])

    # Depth-first over ``order`` with one candidate iterator per assigned
    # level; a level's current choice is undone before its next one is tried.
    vmaps: list[dict[int, int]] = [] if order else [{}]
    vmap: dict[int, int] = {}
    stack = [candidates(order[0])] if order else []
    while stack:
        v = order[len(stack) - 1]
        used.discard(vmap.pop(v, None))
        for w in stack[-1]:
            if w not in used:
                vmap[v] = w
                if fits(v, w):
                    break
        else:
            vmap.pop(v, None)
            stack.pop()
            continue
        used.add(w)
        if len(stack) == len(order):
            vmaps.append(dict(vmap))
        else:
            stack.append(candidates(order[len(stack)]))
    return vmaps


def previous_embeddings(host: Graph, pattern: Graph, ptype: PatchType | None = None,
                            anchors: Set[int] | None = None) -> list[Renaming]:
    """All vertex- and edge-injective embeddings of ``pattern`` into ``host``.

    The first vertex of each pattern component takes its candidates from
    the host's ``label_index``, every later one from the edges of a placed
    neighbour's image that carry the label and direction of a pattern edge.
    With ``ptype``, the left patch type of a rule, embeddings that cannot
    adhere are left out: a pattern vertex that no type edge leaves needs an
    image with exactly its pattern out-degree, and likewise for in-edges;
    a pattern vertex with no loop type edge needs an image with exactly its
    pattern loops.

    With ``anchors``, only the embeddings whose image meets them are listed:
    the search starts from each anchor in turn, placing each pattern vertex
    there as the root of its component, and keeps the anchors already tried
    out of the image, so every embedding is found once.

    The empty pattern has exactly one (empty) embedding, which meets no
    anchor.  Results come in a canonical order: lexicographic on (sorted
    image vertices, sorted image edges, then the maps themselves); ``ptype``
    and ``anchors`` only remove entries.
    """
    if len(pattern.vertices) > len(host.vertices) or len(pattern.edges) > len(host.edges):
        return []
    need = _needs(pattern, None if ptype is None else frozenset(ptype.by_shape()))

    def rarest(v):
        return min(((len(host.label_index().get(lab, ())), lab, out)
                    for out, lab, _ in need[v] if lab),
                   default=(len(host.edges) + 1, None, None))

    def scan(v):
        _, lab, out = rarest(v)
        return (sorted(host.vertices) if lab is None else dict.fromkeys(
            host.edges[e][0 if out else 2] for e in host.label_index().get(lab, ())))

    if anchors is None:
        if not pattern.labels() <= host.label_index().keys():
            return []
        # Components in order of their rarest vertex, each from that vertex.
        plan = _plan(pattern, tuple(sorted(pattern.vertices, key=lambda v: (rarest(v)[0], v))))
        vmaps = _vertex_maps(host, need, plan, scan, set())
    else:
        # Rooted at p, then the other components in id order.
        vmaps, tried, verts = [], set(), sorted(pattern.vertices)
        for a in sorted(anchors & host.vertices):
            for p in verts:
                vmaps += _vertex_maps(host, need, _plan(pattern, (p, *verts)),
                                      lambda v, a=a, p=p: (a,) if v == p else scan(v), tried)
            tried.add(a)

    results = []
    for vm in vmaps:
        pat_groups: dict[tuple, list[int]] = {}
        for e, (s, lab, t) in pattern.sorted_edges():
            pat_groups.setdefault((vm[s], lab, vm[t]), []).append(e)
        pools = [(ps, _between(host, *key)) for key, ps in sorted(pat_groups.items())]
        for choice in itertools.product(
                *[itertools.permutations(hs, len(ps)) for ps, hs in pools]):
            results.append(Renaming(vm, {p: h for (ps, _), images in zip(pools, choice)
                                         for p, h in zip(ps, images)}))
    results.sort(key=_embedding_key)
    return results
