"""Locating rule matches inside a host graph.

A redex is a located match: an injective embedding of the left pattern, the
induced context/patch/match decomposition of the host, and one adherence map
assigning every patch edge to a left type edge.  A host contains a redex for
a rule exactly when some subgraph is isomorphic to the left pattern and every
edge incident to it (but outside it) adheres to some left type edge.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .graph import Graph, PatchDecomposition, Renaming, decompose_at
from .rules import CONTEXT, PatchType, QuasiRule, enumerate_adherence_maps, match_positions


@dataclass
class Redex:
    """One way a rule matches a host, including the chosen adherence map;
    the context of ``decomposition`` is derived on first use (a step)."""

    rule: QuasiRule
    embedding: Renaming
    decomposition: PatchDecomposition
    h_l: dict[int, int]

    def match_summary(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(sorted(self.decomposition.match.vertices)),
                tuple(sorted(self.decomposition.match.edges)))


def _embedding_key(r: Renaming):
    return (tuple(sorted(r.vmap.values())), tuple(sorted(r.emap.values())),
            tuple(sorted(r.vmap.items())), tuple(sorted(r.emap.items())))


def find_pattern_embeddings(host: Graph, pattern: Graph,
                            ptype: PatchType | None = None) -> list[Renaming]:
    """All vertex- and edge-injective embeddings of ``pattern`` into ``host``.

    The first vertex of each pattern component takes its candidates from
    the host's ``label_index``, every later one from the edges of a placed
    neighbour's image that carry the label and direction of a pattern edge.
    With ``ptype``, the left patch type of a rule, embeddings that cannot
    adhere are left out: a pattern vertex that no type edge leaves needs an
    image with exactly its pattern out-degree, and likewise for in-edges.

    The empty pattern has exactly one (empty) embedding.  Results come in a
    canonical order: lexicographic on (sorted image vertices, sorted image
    edges, then the maps themselves); ``ptype`` only removes entries.
    """
    index, edges = host.label_index(), host.edges
    if len(pattern.vertices) > len(host.vertices) or len(pattern.edges) > len(host.edges) \
            or not pattern.labels() <= index.keys():
        return []
    # Per pattern vertex, ``(out, label, n)``: its image has at least n such
    # edges on that side, or, for label None, exactly n edges there.
    need: dict[int, list[tuple]] = {v: [] for v in pattern.vertices}
    for v, out in itertools.product(pattern.vertices, (True, False)):
        es = (pattern.out_edges if out else pattern.in_edges)(v)
        if ptype is not None and all(pair[not out] != v for pair in ptype.by_shape()):
            need[v].append((out, None, len(es)))
        need[v] += [(out, lab, n) for lab, n in Counter(pattern.label(e) for e in es).items()]

    def rarest(v):
        return min(((len(index[lab]), lab, out) for out, lab, _ in need[v] if lab),
                   default=(len(host.edges) + 1, None, None))

    # Breadth-first per component from its rarest vertex; each later vertex
    # is anchored on the pattern edge that reached it.
    order: list[int] = []
    anchor: dict[int, tuple | None] = {}
    for root in sorted(pattern.vertices, key=lambda v: (rarest(v)[0], v)):
        if root not in anchor:
            anchor[root] = None
            queue = [root]
            for v in queue:
                for e in sorted(pattern.incident_edges(v)):
                    s, lab, t = pattern.edges[e]
                    if (w := t if s == v else s) not in anchor:
                        anchor[w] = (v, lab, s == v)
                        queue.append(w)
            order += queue
    checks: dict[int, list] = {v: [] for v in order}
    for (s, lab, t), n in Counter(pattern.edges.values()).items():
        checks[max(s, t, key=order.index)].append((s, lab, t, n))

    def between(hs, lab, ht):
        return [e for e in host.out_edges(hs) if edges[e] == (hs, lab, ht)]

    def candidates(v):
        if anchor[v] is None:
            _, lab, out = rarest(v)
            return iter(sorted(host.vertices) if lab is None else
                        dict.fromkeys(edges[e][0 if out else 2] for e in index[lab]))
        u, lab, out = anchor[v]
        es = host.out_edges(vmap[u]) if out else host.in_edges(vmap[u])
        return iter(dict.fromkeys(edges[e][2 if out else 0] for e in es if edges[e][1] == lab))

    def fits(v, w):
        return all(len(es) == n if lab is None else sum(edges[e][1] == lab for e in es) >= n
                   for out, lab, n in need[v]
                   for es in [host.out_edges(w) if out else host.in_edges(w)]) and \
            all(len(between(vmap[s], lab, vmap[t])) >= n for s, lab, t, n in checks[v])

    # Depth-first over ``order`` with one candidate iterator per assigned
    # level; a level's current choice is undone before its next one is tried.
    vmaps: list[dict[int, int]] = [] if order else [{}]
    vmap: dict[int, int] = {}
    used: set[int] = set()
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

    results = []
    for vm in vmaps:
        pat_groups: dict[tuple, list[int]] = {}
        for e, (s, lab, t) in pattern.sorted_edges():
            pat_groups.setdefault((vm[s], lab, vm[t]), []).append(e)
        pools = [(ps, between(*key)) for key, ps in sorted(pat_groups.items())]
        for choice in itertools.product(
                *[itertools.permutations(hs, len(ps)) for ps, hs in pools]):
            results.append(Renaming(vm, {p: h for (ps, _), images in zip(pools, choice)
                                         for p, h in zip(ps, images)}))
    results.sort(key=_embedding_key)
    return results


def find_redexes(host: Graph, rule: QuasiRule,
                 cap: int | None = None) -> tuple[list[Redex], bool]:
    """All redexes of ``rule`` in ``host`` in canonical order.

    Per embedding, one redex per adherence map (deterministic rules admit at
    most one).  Embeddings whose patch does not adhere are dropped.  The
    second component flags that some enumeration hit the map cap.
    """
    redexes, truncated = [], False
    for emb in find_pattern_embeddings(host, rule.lhs.pattern, rule.lhs.ptype):
        d = decompose_at(host, emb.image_vertices(), emb.image_edges())
        maps, cut = enumerate_adherence_maps(
            d.patch, rule.lhs.ptype, match_positions(rule.lhs.pattern, emb), cap)
        truncated = truncated or cut
        redexes += [Redex(rule, emb, d, h_l) for h_l in maps]
    return redexes, truncated


def context_of(e: int, h: dict[int, int], d: PatchDecomposition,
               ptype: PatchType) -> frozenset[int]:
    """The context vertex an assigned patch edge touches, if any.

    Returns ``{src}`` when the assigned type edge starts at CONTEXT,
    ``{tgt}`` when it ends there, and the empty set otherwise.
    """
    ts, tt = ptype.edges[h[e]]
    s, _, t = d.patch.edges[e]
    return frozenset({s} if ts == CONTEXT else {t} if tt == CONTEXT else ())
