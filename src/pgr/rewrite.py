"""Constructing, verifying and chaining rewrite steps.

A step replaces the match by a fresh copy of the right pattern and rebuilds
the patch around it (``_rebuild``).  The certificate ``apply_at`` returns
carries all witnesses, and ``verify_step`` re-checks them declaratively,
independent of the constructive path.
"""

from __future__ import annotations

import functools
import itertools
import random as random_module
from dataclasses import dataclass

from .exceptions import DeterminismViolation, PgrError, StepLimitReached
from .graph import Graph, Renaming, canonical_form, find_isomorphism, patch_edges
from .matching import Redex, RedexSets, _orbit_redexes, find_redexes
from .rules import CONTEXT, QuasiRule, default_map_cap, match_positions, patch_shapes


@dataclass
class StepCertificate:
    """Witnesses that one rewrite step satisfies the step conditions."""

    redex: Redex
    rhs_instance: Renaming
    j_prime: Graph
    h_r: dict[int, int]
    sigma: dict[int, int]


def _instantiate_rhs(rule: QuasiRule, counter) -> Renaming:
    vertices, edges, _ = rule._step_plan
    return Renaming._trusted(dict(zip(vertices, counter)), dict(zip(edges, counter)))


def _rebuild(redex: Redex, fresh_base: int | None, edges: dict, h_r: dict | None = None,
             sigma: dict | None = None) -> tuple[Renaming, int | None]:
    """The pairing rule, stated once: add to ``edges`` the new patch edges,
    per right type edge in id order one per old patch edge of its trace image
    in id order, then the right pattern's copy, all with ids from
    ``fresh_base`` up (default: above every id of the host and the rule); a
    context end is the old edge's end at the slot that ``_step_plan`` names.
    With ``h_r`` and ``sigma``, each new edge's right type edge and old edge
    go there.  Returns the copy and the largest new id (None if none)."""
    rule, d, h_l = redex.rule, redex.decomposition, redex.h_l
    floor = max(d._host.max_id(), rule.rhs.pattern.max_id()) + 1
    if fresh_base is not None and fresh_base < floor:
        raise ValueError(f"fresh base {fresh_base} collides with existing ids "
                         f"(needs at least {floor})")
    counter = itertools.count(base := floor if fresh_base is None else fresh_base)
    inst, old, by_left = _instantiate_rhs(rule, counter), d._host.edges, {}
    for j in d._je:  # in id order (``PatchDecomposition``)
        by_left.setdefault(h_l[j], []).append(j)
    ends = dict(vmap := inst.vmap)  # and CONTEXT, per old edge, to its context end
    for t, left, ts, tt, slot in rule._step_plan[2]:
        for j in by_left.get(left, ()):
            triple = old[j]
            if slot is not None:
                ends[CONTEXT] = triple[slot]
            edges[e := next(counter)] = (ends[ts], triple[1], ends[tt])
            if h_r is not None:
                h_r[e], sigma[e] = t, j
    edges.update({inst.emap[p]: (vmap[s], lab, vmap[t])
                  for p, (s, lab, t) in rule.rhs.pattern.edges.items()})
    return inst, (top if (top := next(counter) - 1) >= base else None)


def construct_rhs_patch(redex: Redex, fresh_base: int):
    """The replacement patch for a redex, with fresh ids from ``fresh_base``
    up: ``(rhs_instance, j_prime, h_r, sigma)`` of ``apply_at``'s certificate,
    where ``sigma`` pairs every new patch edge with the old one it derives from."""
    cert = apply_at(redex.decomposition._host, redex, fresh_base)[1]
    return cert.rhs_instance, cert.j_prime, cert.h_r, cert.sigma


def apply_at(host: Graph, redex: Redex,
             fresh_base: int | None = None) -> tuple[Graph, StepCertificate]:
    """Perform the step at a redex; the host itself is untouched.

    The result keeps the context ids verbatim; the fresh pattern copy and the
    new patch edges take ids from ``fresh_base`` (default: above every id in
    the host and the rule).  It equals ``patch_compose`` of the context, the
    new patch and the new match, edge order included.
    """
    h_r, sigma = {}, {}
    result, inst = _successor(host, redex, fresh_base, h_r, sigma)
    jp = {e: result.edges[e] for e in sigma}
    j_prime = Graph._trusted(frozenset(x for s, _, t in jp.values() for x in (s, t)), jp)
    return result, StepCertificate(redex, inst, j_prime, h_r, sigma)


def _successor(host: Graph, redex: Redex, fresh_base: int | None = None, h_r=None,
               sigma=None) -> tuple[Graph, Renaming]:
    """``apply_at``'s result, composed afresh, and its instance: the host's
    edges without J and M, then ``_rebuild``'s, to which ``h_r`` and ``sigma`` go."""
    d, edges = redex.decomposition, dict(host.edges)
    for e in itertools.chain(d._je, d._me):
        del edges[e]
    inst, top = _rebuild(redex, fresh_base, edges, h_r, sigma)
    result = Graph._trusted((host.vertices - d._mv).union(inst.vmap.values()), edges)
    result._max = top
    return result, inst


def _step(g: Graph, redex: Redex, fresh_base: int | None) -> Renaming:
    """Edit ``g``, ``normalize``'s draft of the redex's host, into the step's
    result, as ``apply_at`` composes it; returns the instance."""
    inst, _ = _rebuild(redex, fresh_base, added := {})
    g._replace(redex.decomposition, inst.vmap.values(), added)
    return inst


def verify_step(host: Graph, result: Graph, cert: StepCertificate) -> bool:
    """Re-check a certificate against the step conditions, on the step's
    parts: ``_redex_ok`` reads the redex off the host, ``_result_ok``
    compares the result with ``_derived``'s; neither derives C, J or M.
    Both are given the patch ids at the match, read off the host once.  A
    malformed certificate is a failure, not an exception."""
    je = _patch_ids(host, cert.redex)
    return _redex_ok(host, cert.redex, je) and _result_ok(host, result, cert, je)


def _false_on_error(check):
    """Malformed certificates count as failures rather than raising."""
    @functools.wraps(check)
    def guarded(*args):
        try:
            return check(*args)
        except (PgrError, KeyError, TypeError, ValueError):
            return False
    return guarded


@_false_on_error
def _patch_ids(host: Graph, redex: Redex) -> set[int]:
    """The ids of the edges outside the redex's match that touch it in
    ``host``, or False if its decomposition does not fit ``host``."""
    return set(patch_edges(host, redex.decomposition._mv, redex.decomposition._me))


@_false_on_error
def _redex_ok(host: Graph, redex: Redex, je: set[int]) -> bool:
    """The left half: the decomposition splits ``host``, its match is the
    image of the left pattern, its patch ids are the edges outside the match
    that touch it, ``je`` (``_patch_ids``), and each patch edge's host
    triple adheres under ``h_l``."""
    d, emb, pattern, types = (redex.decomposition, redex.embedding, redex.rule.lhs.pattern,
                              redex.rule.lhs.ptype.edges)
    vmap, at = emb.vmap, match_positions(pattern, emb)
    return ((d._host is host or d._host == host) and at.keys() == d._mv
            and {emb.emap[p]: (vmap[s], lab, vmap[t]) for p, (s, lab, t) in pattern.edges.items()}
            == {e: host.edges[e] for e in d._me}
            and redex.h_l.keys() == set(d._je) == je
            and list(map(types.get, redex.h_l.values())) == patch_shapes(host, redex.h_l, at))


def _derived(host: Graph, redex: Redex, inst: Renaming, h_r: dict[int, int],
             sigma: dict[int, int]) -> tuple[frozenset[int], dict[int, tuple]] | None:
    """The result's vertices and edges that the step conditions fix for the
    instance and pairing, or None if the pairing breaks them.  The context
    stays; the match becomes ``inst``'s copy of the right pattern, off the
    context; a new patch edge takes its right type edge's pattern ends and
    its sigma partner's label and, at CONTEXT, context end, a context vertex.
    The partners are the old patch edges of the trace images, each once per
    right type edge.  A new id may reuse an id of the old patch or match."""
    rule, d, h_l, old = redex.rule, redex.decomposition, redex.h_l, host.edges
    je, cv, pattern, edges = set(d._je), host.vertices - d._mv, rule.rhs.pattern, dict(old)
    ends = dict(inst.vmap)  # and CONTEXT, per new edge, to its partner's context end
    m_v = frozenset(ends[p] for p in pattern.vertices)
    plan, per_left = {}, {}  # per_left: right type edges per trace image
    for t, left, ts, tt, slot in rule._step_plan[2]:
        plan[t], per_left[left] = (left, ts, tt, slot), per_left.get(left, 0) + 1
    for e in itertools.chain(je, d._me):
        edges.pop(e, None)
    kept, pairs = len(edges), set()
    for e, te in h_r.items():
        (left, ts, tt, slot), partner = plan[te], old[j := sigma[e]]
        if slot is not None:
            ends[CONTEXT] = partner[slot]
        if not (j in je and h_l.get(j) == left and (slot is None or ends[CONTEXT] in cv)):
            return None
        edges[e] = (ends[ts], partner[1], ends[tt])
        pairs.add((te, j))
    edges.update((inst.emap[p], (ends[s], lab, ends[t]))
                 for p, (s, lab, t) in pattern.edges.items())
    if not (h_r.keys() == sigma.keys() and len(edges) == kept + len(h_r) + len(pattern.edges)
            and len(pairs) == len(h_r) == sum(map(per_left.get, h_l.values(), itertools.repeat(0)))
            and cv.isdisjoint(m_v)):
        return None
    return cv | m_v, edges


@_false_on_error
def _result_ok(host: Graph, result: Graph, cert: StepCertificate, je: set[int]) -> bool:
    """The right half: the result is ``_derived``'s for the certificate's
    instance and pairing (one dict comparison, no Python loop over the
    host's edges), J' is its part at sigma's keys, and the old patch holds
    every edge at the match, ``je`` (``_patch_ids``)."""
    d, jp = cert.redex.decomposition, cert.j_prime
    return (_derived(host, cert.redex, cert.rhs_instance, cert.h_r, cert.sigma)
            == (result.vertices, result.edges)
            and jp.edges == {e: result.edges[e] for e in cert.sigma}
            and jp.vertices == {x for s, _, t in jp.edges.values() for x in (s, t)}
            and set(d._je).issuperset(je))


def brute_force_step_oracle(host: Graph, redex: Redex) -> list[Graph]:
    """The result the step conditions allow, from them alone: ``[]`` or its
    canonical form; ``[]`` for a redex that fails the left half of
    ``verify_step``.  The conditions fix the result up to the numbering of
    its new edges, so only the pairing they force is built: per right type
    edge in id order, a new edge for each old patch edge of its trace image
    in id order, numbered after the right-pattern instance.  ``_derived``
    gives the result for it."""
    if not _redex_ok(host, redex, _patch_ids(host, redex)):
        return []
    rule, h_l = redex.rule, redex.h_l
    counter = itertools.count(max(host.max_id(), rule.rhs.pattern.max_id()) + 1)
    inst, h_r, sigma = _instantiate_rhs(rule, counter), {}, {}
    for t in sorted(rule.rhs.ptype.edges):
        for j in sorted(j for j, left in h_l.items() if left == rule.trace[t]):
            e = next(counter)
            h_r[e], sigma[e] = t, j
    derived = _derived(host, redex, inst, h_r, sigma)
    return [] if derived is None else [canonical_form(Graph._trusted(*derived))]


def successors(host: Graph, system: dict[str, QuasiRule],
               dedup: bool = True) -> tuple[list[tuple[str, Graph]], bool]:
    """All one-step results over all rules of the system, in rule order.

    With ``dedup`` the list keeps one representative per isomorphism class;
    a deterministic rule steps one redex per orbit of the host's
    automorphisms, twin classes included, and builds no redex it skips
    (``_expand``).  Without it, every redex is applied.  Rules with equal left
    sides share one search.  The flag: a redex list was cut at the map cap
    (``PGR_MAX_MAPS``).
    """
    out, _, truncated = _expand(host, system, set() if dedup else None)
    return out, truncated


def _expand(host: Graph, system: dict[str, QuasiRule],
            seen: set[Graph] | None) -> tuple[list[tuple[str, Graph]], set[str], bool]:
    """``successors`` and the names of the rules with a redex, with the map cap
    read once.  A rule whose ``left_key`` an earlier one has is not searched: it
    takes that rule's redexes (``_as_rule``).  With a ``seen`` set, a result is
    kept only if its canonical form is new, and adds it.  There a deterministic
    rule steps only at its ``_orbit_redexes``, one per orbit of the host's
    automorphisms, twin classes included: the others differ from the first of
    their orbit by a host automorphism (twins permuted, parallel edges of equal
    triples swapped, or one the labelling found), which carries adherence over,
    and the seen set would drop their results, so they get no patch, maps or
    redex.  The twin classes and automorphisms are read off the host's
    labelling, made before any map is read once the rule lists two vertex maps,
    and cached."""
    out, fired, truncated, cap, searched = [], set(), False, default_map_cap(), {}
    for name, rule in system.items():
        if (found := searched.get(rule.left_key)) is None:
            found = searched[rule.left_key] = (
                (_orbit_redexes(host, rule, cap), False) if seen is not None
                and rule.deterministic else find_redexes(host, rule))
        redexes, truncated = _as_rule(found[0], rule), truncated or found[1]
        if redexes:
            fired.add(name)
        for redex in redexes:
            result = _successor(host, redex)[0]
            if seen is not None:
                if (key := canonical_form(result)) in seen:
                    continue
                seen.add(key)
            out.append((name, result))
    return out, fired, truncated


def _as_rule(redexes: list[Redex], rule: QuasiRule) -> list[Redex]:
    """``redexes``, of a rule with ``rule``'s ``left_key``, as ``rule``'s: each type edge
    in ``h_l`` goes to ``rule``'s of equal shape and rank, which keeps the maps' order."""
    if not redexes or (other := redexes[0].rule) is rule:
        return redexes
    ids = rule.lhs.ptype.by_shape()
    to = {a: b for shape, xs in other.lhs.ptype.by_shape().items() for a, b in zip(xs, ids[shape])}
    return [Redex(rule, r.embedding, r.decomposition, {j: to[t] for j, t in r.h_l.items()},
                  r.capped) for r in redexes]


@dataclass(frozen=True)
class StepRecord:
    """One entry of a normalization trace; ``truncated`` flags a capped search."""

    rule: str
    match_vertices: tuple[int, ...]
    match_edges: tuple[int, ...]
    truncated: bool = False


def normalize(host: Graph, system: dict[str, QuasiRule], strategy: str = "first",
              seed: int | None = None, max_steps: int = 10000) -> tuple[Graph, list[StepRecord]]:
    """Apply redexes until none remains.

    ``first`` picks the first redex of the first applicable rule in declared
    order, reading no rule after it; ``random`` draws uniformly from all
    (rule, redex) pairs with the given seed.  The redex lists are those of
    ``find_redexes``, kept across steps in a ``RedexSets``: after a step,
    only the embeddings that meet a vertex it touched are searched again,
    from those vertices.  A step touches its match, the vertices it creates
    and each context end of J with an edge whose type edge the rule does not
    carry (``QuasiRule.carried``); at a context end whose edges are all
    carried, the embeddings keep their place and only their patch ids and
    maps are read again.  The steps are those of ``apply_at``, but all edit
    one draft copy of ``host`` (``_step``), handed out at the end.  A step's
    record is ``truncated`` when a redex list it read was capped by the map
    cap (``PGR_MAX_MAPS``), so it chose from an incomplete list.  Raises
    StepLimitReached (carrying the partial trace) if no normal form is found
    within ``max_steps``.  The result keeps its step-local ids, so trace
    ids point into the intermediate graphs.
    """
    if strategy not in ("first", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random_module.Random(seed)
    g = host._draft()
    sets, edges = RedexSets(g, system), g.edges
    trace: list[StepRecord] = []
    for _ in range(max_steps):
        pool, truncated = [], False
        for name in system:
            entries, cut = sets.entries(name)
            truncated = truncated or cut
            if strategy == "first" and entries:
                pool = [(name, entries[0], entries[0].maps[0])]
                break
            pool += [(name, x, h_l) for x in entries for h_l in x.maps]
        if not pool:
            return g._handout(), trace
        name, entry, h_l = pool[0] if strategy == "first" else pool[rng.randrange(len(pool))]
        redex, carries = sets.redex(name, entry, h_l), system[name].carried
        touched, carried = set(redex.embedding.vmap.values()), set()
        for j, left in h_l.items():  # the ends of J, read before the edit
            (carried if left in carries else touched).update(edges[j][::2])
        sets.advance(touched.union(_step(g, redex, None).vmap.values()), carried - touched)
        trace.append(StepRecord(name, *entry.key[:2], truncated))
    # One more look: the limit only matters if a redex is still there.
    if any(sets.entries(name)[0] for name in system):
        raise StepLimitReached(g._handout(), trace)
    return g._handout(), trace


def check_rule_determinism(rule: QuasiRule, hosts: list[Graph]) -> dict[str, int]:
    """Apply every redex at the default fresh base and at a far one; each
    result must be isomorphic to the first derivation at its location.
    Only meaningful for a simple left patch type: quasi rules are rejected."""
    if not rule.deterministic:
        raise ValueError("rule is quasi; determinism is not claimed for it")
    checked = 0
    for host in hosts:
        by_location: dict[tuple, list[Redex]] = {}
        for redex in find_redexes(host, rule)[0]:
            by_location.setdefault(redex.match_summary(), []).append(redex)
        base = max(host.max_id(), rule.rhs.pattern.max_id()) + 7919
        for group in by_location.values():
            # One decomposition: all derivations, whatever ids or embedding, are isomorphic.
            reference, _ = apply_at(host, group[0])
            for variant in (apply_at(host, r, b)[0] for r in group for b in (None, base)):
                if find_isomorphism(reference, variant) is None:
                    raise DeterminismViolation(f"derivations at one location differ on {host!r}")
                checked += 1
    return {"hosts": len(hosts), "steps_checked": checked}
