"""Patch types, schemes and rewrite rules.

A rule is a pair of schemes, each a pattern graph annotated with a *patch
type*: a set of unlabeled placeholder edges over the pattern vertices plus
the reserved context endpoint ``CONTEXT``.  Each type edge stands for a set
of patch edges around a match.  A trace function maps every right type edge
back to a left type edge, saying how the corresponding patch edges are
moved, duplicated, inverted or dropped by a step.

Rules whose left patch type is simple admit exactly one adherence map per
match and therefore rewrite deterministically; the general ("quasi") case
allows several.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .exceptions import (
    DanglingRhsName,
    InvalidRule,
    NotAMorphism,
    PositionMismatch,
    SharedName,
)
from .graph import Graph, Renaming, find_isomorphism, rename_graph

# Reserved endpoint standing for "some context vertex".  Vertex ids are
# integers, so the sentinel can never collide with one.
CONTEXT = "ctx"

Endpoint = int | str  # a vertex id or CONTEXT

DEFAULT_MAP_CAP = 4096


def default_map_cap() -> int:
    """The adherence-map cap: PGR_MAX_MAPS if set, else DEFAULT_MAP_CAP."""
    raw = os.environ.get("PGR_MAX_MAPS")
    if raw is None:
        return DEFAULT_MAP_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"PGR_MAX_MAPS must be a positive integer, got {raw!r}")
    return cap


class PatchType:
    """Unlabeled placeholder edges over a pattern graph and CONTEXT."""

    __slots__ = ("pattern", "edges", "_by_shape", "_matcher")

    def __init__(self, pattern: Graph, edges: Mapping[int, tuple[Endpoint, Endpoint]] = ()):
        self.pattern = pattern
        self.edges = {int(e): (s, t) for e, (s, t) in dict(edges).items()}
        for e, (s, t) in self.edges.items():
            if s == CONTEXT and t == CONTEXT:
                raise ValueError(f"type edge {e} lies entirely in the context")
            for ep in (s, t):
                if ep != CONTEXT and ep not in pattern.vertices:
                    raise ValueError(f"type edge {e}: endpoint {ep} not a pattern vertex")
        self._by_shape = self._matcher = None  # ``_matcher``: see ``matching``

    def is_simple(self) -> bool:
        pairs = list(self.edges.values())
        return len(pairs) == len(set(pairs))

    def renamed(self, ren: Renaming) -> "PatchType":
        """Transport the annotation onto the renamed pattern; ids are kept.

        Matching and rewriting never transport a type: adherence reads each
        patch edge back through ``match_positions``.  This serves callers
        that carry a type along a witness, e.g. of ``rules_isomorphic``.
        """
        new_pattern = rename_graph(self.pattern, ren)

        def move(ep):
            return CONTEXT if ep == CONTEXT else ren.vmap[ep]

        return PatchType(new_pattern,
                         {e: (move(s), move(t)) for e, (s, t) in self.edges.items()})

    def sorted_edges(self):
        return sorted(self.edges.items())

    def by_shape(self) -> dict[tuple[Endpoint, Endpoint], list[int]]:
        """Type edge ids grouped by endpoint pair, in id order; built once."""
        if self._by_shape is None:
            by_shape = {}
            for te, pair in self.sorted_edges():
                by_shape.setdefault(pair, []).append(te)
            self._by_shape = by_shape  # stored once complete
        return self._by_shape

    def __eq__(self, other):
        if not isinstance(other, PatchType):
            return NotImplemented
        return self.pattern == other.pattern and self.edges == other.edges

    def __repr__(self):
        es = ", ".join(f"{e}:{s}->{t}" for e, (s, t) in self.sorted_edges())
        return f"PatchType([{es}])"


@dataclass(frozen=True)
class Scheme:
    """A pattern together with the patch type that annotates it."""

    pattern: Graph
    ptype: PatchType

    def __post_init__(self):
        if self.ptype.pattern != self.pattern:
            raise ValueError("patch type does not annotate this pattern")


@dataclass(frozen=True)
class QuasiRule:
    """A pair of schemes plus the trace from right type edges to left ones;
    a rule that fails ``validate_quasi_rule`` raises ``InvalidRule``."""

    lhs: Scheme
    rhs: Scheme
    trace: dict[int, int]

    def __post_init__(self):
        violations = validate_quasi_rule(self)
        if violations:
            raise InvalidRule(violations)

    @functools.cached_property
    def deterministic(self) -> bool:
        return self.lhs.ptype.is_simple()

    @functools.cached_property
    def left_key(self) -> tuple:
        """The left pattern and each type-edge shape's count: what fixes the redexes up to ids."""
        return self.lhs.pattern, frozenset((s, len(x)) for s, x in self.lhs.ptype.by_shape().items())

    @functools.cached_property
    def _step_plan(self):
        """What a step needs of the rule, worked out on first use: the right
        pattern's vertices and edges in id order, and per right type edge in
        id order ``(id, trace image, src, tgt, slot)``, with ``slot`` the index
        (0 or 2) of the context end in the old triples, if the edge has one."""
        t_l, pattern = self.lhs.ptype.edges, self.rhs.pattern
        return sorted(pattern.vertices), sorted(pattern.edges), [
            (t, self.trace[t], ts, tt,
             2 * t_l[self.trace[t]].index(CONTEXT) if CONTEXT in (ts, tt) else None)
            for t, (ts, tt) in self.rhs.ptype.sorted_edges()]

    @functools.cached_property
    def carried(self) -> frozenset[int]:
        """The left type edges whose patch edges a step carries: at a context
        end, each becomes one new edge with the same label on the same side,
        so only its id changes.  Such a type edge has no CONTEXT end (its
        edges touch no context vertex), or exactly one right type edge traced
        to it has a CONTEXT end, and at the same index."""
        images = {}  # left type edge -> the CONTEXT index of each right image
        for t, ends in self.rhs.ptype.edges.items():
            if CONTEXT in ends:
                images.setdefault(self.trace[t], []).append(ends.index(CONTEXT))
        return frozenset(e for e, ends in self.lhs.ptype.edges.items()
                         if CONTEXT not in ends or images.get(e) == [ends.index(CONTEXT)])


def validate_quasi_rule(rule: QuasiRule) -> list[str]:
    """Structural check report for a rule; empty means valid."""
    out = []
    t_l, t_r = rule.lhs.ptype, rule.rhs.ptype
    if set(rule.trace) != set(t_r.edges):
        out.append("trace is not total on the right type edges")
    for e, target in rule.trace.items():
        if target not in t_l.edges:
            out.append(f"trace of type edge {e} is not a left type edge")
    for e, (s, t) in t_r.edges.items():
        target = rule.trace.get(e)
        if target is None or target not in t_l.edges:
            continue
        if CONTEXT in (s, t) and CONTEXT not in t_l.edges[target]:
            out.append(f"type edge {e} touches the context but its trace "
                       f"image {target} does not")
    id_sets = [set(rule.lhs.pattern.edges), set(rule.rhs.pattern.edges),
               set(t_l.edges), set(t_r.edges)]
    for a, b in itertools.combinations(range(4), 2):
        if id_sets[a] & id_sets[b]:
            out.append("edge/type-edge ids are not unique across the rule")
            break
    return out


def build_rule(lhs_pattern: Graph,
               lhs_types: Mapping[object, tuple[Endpoint, Endpoint]],
               rhs_pattern: Graph,
               rhs_types: Iterable[tuple[Endpoint, Endpoint, object]]) -> QuasiRule:
    """Assemble a rule from keyed type edges; ``QuasiRule`` validates it.

    ``lhs_types`` maps a key to an endpoint pair; every right type edge cites
    the key of the left edge it traces to.  Type-edge ids are allocated above
    both patterns' edge ids.
    """
    next_id = max(max(lhs_pattern.edges, default=-1),
                  max(rhs_pattern.edges, default=-1)) + 1
    lhs_ids = {}
    t_l = {}
    for key, (s, t) in lhs_types.items():
        if key in lhs_ids:
            raise InvalidRule([f"duplicate left type-edge key {key!r}"])
        lhs_ids[key] = next_id
        t_l[next_id] = (s, t)
        next_id += 1
    t_r = {}
    trace = {}
    for s, t, key in rhs_types:
        if key not in lhs_ids:
            raise InvalidRule([f"right type edge cites unknown key {key!r}"])
        t_r[next_id] = (s, t)
        trace[next_id] = lhs_ids[key]
        next_id += 1
    return QuasiRule(Scheme(lhs_pattern, PatchType(lhs_pattern, t_l)),
                     Scheme(rhs_pattern, PatchType(rhs_pattern, t_r)),
                     trace)


# -- adherence ---------------------------------------------------------------


def match_positions(pattern: Graph, ren: Renaming) -> dict[int, int]:
    """Map each match vertex of an embedding back to its pattern vertex."""
    return {ren.vmap[p]: p for p in pattern.vertices}


def patch_shapes(j: Graph, es: Iterable[int],
                 at: Mapping[int, int]) -> list[tuple[Endpoint, Endpoint]]:
    """Each patch edge of ``es`` in ``j`` (the patch or its host) read
    through ``at`` (match vertex to pattern vertex), every endpoint off the
    match read as CONTEXT: the type edge it must be a copy of to adhere."""
    return [(at.get(s, CONTEXT), at.get(t, CONTEXT)) for s, _, t in map(j.edges.__getitem__, es)]


def adherence_maps(g: Graph, patch: list[int], ptype: PatchType, at: Mapping[int, int],
                   cap: int) -> tuple[list[dict[int, int]], bool]:
    """All total adherence maps from the edges ``patch`` (in id order) of
    ``g``, the patch or its host, into ``ptype``, up to ``cap`` of them.

    ``at`` maps the match vertices to the pattern vertices of ``ptype``.
    Returns the maps in lexicographic order over (patch edge id, type edge
    id) together with a flag telling whether the listing was cut off at
    ``cap``.  Its callers, ``find_redexes`` and ``enumerate_adherence_maps``,
    read the cap, ``default_map_cap()`` (``PGR_MAX_MAPS``), once per call.
    An empty list means the patch does not adhere at all.
    """
    candidates = list(map(ptype.by_shape().get, patch_shapes(g, patch, at)))
    if None in candidates:
        return [], False
    maps = [dict(zip(patch, combo))
            for combo in itertools.islice(itertools.product(*candidates), cap)]
    return maps, math.prod(map(len, candidates)) > cap


def enumerate_adherence_maps(j: Graph, ptype: PatchType,
                             at: Mapping[int, int]) -> tuple[list[dict[int, int]], bool]:
    """All total adherence maps from patch ``j`` into ``ptype``, as
    ``adherence_maps`` lists them under ``default_map_cap()``."""
    return adherence_maps(j, sorted(j.edges), ptype, at, default_map_cap())


def adherence_ok(j: Graph, ptype: PatchType, at: Mapping[int, int],
                 mapping: Mapping[int, int]) -> bool:
    """Check a given map: total on the patch, and every patch edge, read
    through ``at``, has the shape of its type edge."""
    return mapping.keys() == j.edges.keys() and \
        list(map(ptype.edges.get, mapping.values())) == patch_shapes(j, mapping, at)


# -- shorthand notation ------------------------------------------------------


@dataclass
class RuleSketch:
    """Surface form of a rule before the shorthand notations are expanded.

    ``*_names`` carries per-vertex name annotations; ``black`` marks vertices
    (present with the same id on both sides) around which every possible type
    edge is generated; ``*_forbids`` removes otherwise-implicit name edges,
    given as ``(src_vertex, tgt_vertex, name_x, name_y)``.
    """

    lhs: Graph
    rhs: Graph
    lhs_names: dict[int, tuple[str, ...]] = field(default_factory=dict)
    rhs_names: dict[int, tuple[str, ...]] = field(default_factory=dict)
    black: frozenset[int] = frozenset()
    lhs_types: dict[object, tuple[Endpoint, Endpoint]] = field(default_factory=dict)
    rhs_types: list[tuple[Endpoint, Endpoint, object]] = field(default_factory=list)
    lhs_forbids: frozenset[tuple[int, int, str, str]] = frozenset()
    rhs_forbids: frozenset[tuple[int, int, str, str]] = frozenset()


def _name_edges(pattern: Graph, names: Mapping[int, tuple[str, ...]],
                forbids: frozenset) -> list[tuple[object, tuple[Endpoint, Endpoint]]]:
    """The implicit type edges induced by name annotations, keyed by name."""
    named = sorted({(v, x) for v, xs in names.items() for x in xs})
    for v, w, x, y in forbids:
        if (v, x) not in set(named) or (w, y) not in set(named):
            warnings.warn(f"forbidden mark ({x},{y}) on {v}->{w} matches no "
                          f"implicit type edge", stacklevel=3)
    out = []
    for v, x in named:
        out.append(((CONTEXT, x), (CONTEXT, v)))
        out.append(((x, CONTEXT), (v, CONTEXT)))
    for (v, x), (w, y) in itertools.product(named, named):
        if (v, w, x, y) not in forbids:
            out.append(((x, y), (v, w)))
    return out


def desugar_rule(sketch: RuleSketch) -> QuasiRule:
    """Expand name, forbidden-edge and black-node annotations into a rule."""
    seen: dict[str, int] = {}
    for v in sorted(sketch.lhs_names):
        for x in sketch.lhs_names[v]:
            if x in seen and seen[x] != v:
                raise SharedName(f"name {x!r} appears on distinct left nodes "
                                 f"{seen[x]} and {v}")
            seen[x] = v
    lhs_name_set = {x for xs in sketch.lhs_names.values() for x in xs}
    for v in sorted(sketch.rhs_names):
        for x in sketch.rhs_names[v]:
            if x not in lhs_name_set:
                raise DanglingRhsName(f"right name {x!r} has no left counterpart")
    for b in sorted(sketch.black):
        if b not in sketch.lhs.vertices or b not in sketch.rhs.vertices:
            raise PositionMismatch(f"black node {b} is not present on both sides")

    lhs_types: dict[object, tuple[Endpoint, Endpoint]] = dict(sketch.lhs_types)
    rhs_types: list[tuple[Endpoint, Endpoint, object]] = list(sketch.rhs_types)

    for key, pair in _name_edges(sketch.lhs, sketch.lhs_names, sketch.lhs_forbids):
        if key in lhs_types:
            raise InvalidRule([f"generated type-edge key {key!r} already taken"])
        lhs_types[key] = pair
    for key, (s, t) in _name_edges(sketch.rhs, sketch.rhs_names, sketch.rhs_forbids):
        if key not in lhs_types:
            raise DanglingRhsName(f"right name edge {key!r} lacks a left "
                                  f"counterpart (absent or forbidden)")
        rhs_types.append((s, t, key))

    blacks = sorted(sketch.black)
    black_pairs = [(s, t) for s in blacks for t in blacks]
    black_pairs += [(CONTEXT, b) for b in blacks] + [(b, CONTEXT) for b in blacks]
    for s, t in black_pairs:
        key = ("black", s, t)
        lhs_types[key] = (s, t)
        rhs_types.append((s, t, key))

    return build_rule(sketch.lhs, lhs_types, sketch.rhs, rhs_types)


def expand_name_shorthand(sketch: RuleSketch) -> QuasiRule:
    """Expand a sketch that uses only name annotations and forbidden marks."""
    if sketch.black:
        raise ValueError("sketch carries black-node marks; use desugar_rule")
    return desugar_rule(sketch)


def expand_black_node_shorthand(sketch: RuleSketch) -> QuasiRule:
    """Expand a sketch that uses only black-node marks."""
    if sketch.lhs_names or sketch.rhs_names:
        raise ValueError("sketch carries name annotations; use desugar_rule")
    return desugar_rule(sketch)


# -- rule isomorphism --------------------------------------------------------


def _rule_graph(rule: QuasiRule) -> tuple[Graph, list[Endpoint], list[int]]:
    """The rule as one labelled graph, with the ids that its vertices and its
    first edges stand for.

    Vertex 0 is CONTEXT; then come the rule vertices and the type edges.
    Edges 0.. are the pattern edges, under side-prefixed labels; marker
    loops (no ``:`` in them) tell the kinds and the sides of vertices apart.
    """
    verts = sorted(rule.lhs.pattern.vertices | rule.rhs.pattern.vertices)
    types = sorted(rule.lhs.ptype.edges) + sorted(rule.rhs.ptype.edges)
    vertex = {CONTEXT: 0, **{v: i for i, v in enumerate(verts, 1)}}
    node = {e: i for i, e in enumerate(types, len(verts) + 1)}
    pattern_ids, triples, structure = [], [], [(0, "ctx", 0)]
    for mark, side in (("L", rule.lhs), ("R", rule.rhs)):
        for e, (s, label, t) in side.pattern.sorted_edges():
            pattern_ids.append(e)
            triples.append((vertex[s], f"{mark}:{label}", vertex[t]))
        structure += [(vertex[v], mark, vertex[v]) for v in sorted(side.pattern.vertices)]
        for e, (s, t) in side.ptype.sorted_edges():
            structure += [(node[e], f"type {mark}", node[e]),
                          (vertex[s], "src", node[e]), (node[e], "tgt", vertex[t])]
    structure += [(node[e], "trace", node[t]) for e, t in sorted(rule.trace.items())]
    return (Graph.from_triples(range(1 + len(verts) + len(types)), triples + structure),
            [CONTEXT, *verts, *types], pattern_ids)


def rules_isomorphic(r1: QuasiRule, r2: QuasiRule) -> Renaming | None:
    """A witness renaming between two rules, or None.

    The witness fixes CONTEXT, maps both patterns and patch types, and
    commutes with the traces.  Each rule is encoded as one labelled graph
    whose vertices are CONTEXT, the rule vertices and the type edges, each
    marked by kind and side, and whose edges are the side-prefixed pattern
    edges, a ``src`` and a ``tgt`` edge per type edge and a ``trace`` edge
    from each right type edge to its left image.  The rules are isomorphic
    exactly when the encodings are, and ``find_isomorphism``'s witness is
    read back onto the rule ids.
    """
    (g1, ids1, pattern1), (g2, ids2, pattern2) = _rule_graph(r1), _rule_graph(r2)
    w = find_isomorphism(g1, g2)
    if w is None:
        return None
    n = len(r1.lhs.pattern.vertices | r1.rhs.pattern.vertices)
    vmap = {ids1[i]: ids2[j] for i, j in w.vmap.items() if 0 < i <= n}
    emap = {ids1[i]: ids2[j] for i, j in w.vmap.items() if i > n}
    emap.update((pattern1[k], pattern2[j]) for k, j in w.emap.items() if k < len(pattern1))
    return Renaming(vmap, emap)


# -- importing span-style rules ---------------------------------------------


@dataclass(frozen=True)
class Morphism:
    """A total graph morphism given by vertex and edge maps."""

    vmap: dict[int, int]
    emap: dict[int, int]

    @classmethod
    def identity(cls, g: Graph) -> "Morphism":
        return cls({v: v for v in g.vertices}, {e: e for e in g.edges})


def _check_morphism(src: Graph, dst: Graph, m: Morphism, what: str) -> None:
    for v in src.vertices:
        if m.vmap.get(v) not in dst.vertices:
            raise NotAMorphism(f"{what}: vertex {v} has no valid image")
    for e, (s, lab, t) in src.edges.items():
        img = m.emap.get(e)
        if img not in dst.edges:
            raise NotAMorphism(f"{what}: edge {e} has no valid image")
        s2, lab2, t2 = dst.edges[img]
        if (m.vmap[s], lab, m.vmap[t]) != (s2, lab2, t2):
            raise NotAMorphism(f"{what}: edge {e} is not preserved")


def _interface_names(pattern: Graph, interface: Graph, m: Morphism):
    names: dict[int, tuple[str, ...]] = {}
    for v in pattern.vertices:
        pre = sorted(str(k) for k in interface.vertices if m.vmap[k] == v)
        if pre:
            names[v] = tuple(pre)
    return names


def _separate_edge_ids(l: Graph, r: Graph, psi: Morphism) -> tuple[Graph, Morphism]:
    """Shift right-pattern edge ids clear of the left pattern's.

    Sharing vertex ids across the sides of a rule is meaningful (positional
    identity); sharing edge ids is not, so callers passing e.g. L = R get
    the right copy relabeled.
    """
    clash = set(l.edges) & set(r.edges)
    if not clash:
        return r, psi
    base = max(l.max_id(), r.max_id()) + 1
    shift = {e: base + i for i, e in enumerate(sorted(r.edges))}
    moved = Graph(r.vertices, {shift[e]: triple for e, triple in r.edges.items()})
    return moved, Morphism(psi.vmap, {e: shift[img] for e, img in psi.emap.items()})


def import_dpo(l: Graph, k: Graph, r: Graph, phi: Morphism, psi: Morphism,
               injective_phi: bool = True) -> QuasiRule:
    """Translate a span rule L <- K -> R into a patch rewrite rule.

    Pattern vertices are annotated with the names of their interface
    preimages and the annotation is expanded; vertices outside the image of
    the interface get no names, so any incident patch edge blocks the rule
    (the usual gluing behavior).  A non-injective left leg yields a quasi
    rule that distributes patch edges among the split copies.
    """
    _check_morphism(k, l, phi, "left leg")
    _check_morphism(k, r, psi, "right leg")
    if injective_phi and len(set(phi.vmap.values())) != len(phi.vmap):
        raise NotAMorphism("left leg was declared injective but is not")
    r, psi = _separate_edge_ids(l, r, psi)
    sketch = RuleSketch(l, r,
                        lhs_names=_interface_names(l, k, phi),
                        rhs_names=_interface_names(r, k, psi))
    return expand_name_shorthand(sketch)


def import_spo(l: Graph, k: Graph, r: Graph, phi: Morphism, psi: Morphism) -> QuasiRule:
    """As ``import_dpo``, but deletion wins over blocking.

    Pattern vertices without an interface preimage get a fresh left-only
    name, so their incident patch edges match and are dropped by the step
    instead of preventing it.
    """
    _check_morphism(k, l, phi, "left leg")
    _check_morphism(k, r, psi, "right leg")
    r, psi = _separate_edge_ids(l, r, psi)
    lhs_names = _interface_names(l, k, phi)
    for v in sorted(l.vertices):
        if v not in lhs_names:
            lhs_names[v] = (f"dangling{v}",)
    sketch = RuleSketch(l, r,
                        lhs_names=lhs_names,
                        rhs_names=_interface_names(r, k, psi))
    return expand_name_shorthand(sketch)
