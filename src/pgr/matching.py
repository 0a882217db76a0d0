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


def find_pattern_embeddings(host: Graph, pattern: Graph) -> list[Renaming]:
    """All vertex- and edge-injective embeddings of ``pattern`` into ``host``.

    The empty pattern has exactly one (empty) embedding.  Results come in a
    canonical order: lexicographic on (sorted image vertices, sorted image
    edges, then the maps themselves).
    """
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


def find_redexes(host: Graph, rule: QuasiRule,
                 cap: int | None = None) -> tuple[list[Redex], bool]:
    """All redexes of ``rule`` in ``host`` in canonical order.

    Per embedding, one redex per adherence map (deterministic rules admit at
    most one).  Embeddings whose patch does not adhere are dropped.  The
    second component flags that some enumeration hit the map cap.
    """
    redexes = []
    truncated = False
    for emb in find_pattern_embeddings(host, rule.lhs.pattern):
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
    if ts == CONTEXT:
        return frozenset({s})
    if tt == CONTEXT:
        return frozenset({t})
    return frozenset()
