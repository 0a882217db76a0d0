"""Constructing, verifying and chaining rewrite steps.

A step replaces the match by a fresh copy of the right pattern and rebuilds
the patch around it: for every right type edge, each patch edge assigned to
its trace image spawns one new edge, whose pattern ends are the copies of
the type edge's ends and whose context end is the context end of the old
edge.  The certificate produced alongside each step carries all witnesses,
and ``verify_step`` re-checks them declaratively, independent of the
constructive path.
"""

from __future__ import annotations

import functools
import itertools
import random as random_module
from dataclasses import dataclass

from .exceptions import DeterminismViolation, PgrError, StepLimitReached
from .graph import Graph, Renaming, canonical_form, find_isomorphism, patch_compose, rename_graph
from .matching import Redex, RedexSets, context_of, find_redexes
from .rules import CONTEXT, QuasiRule, adherence_ok, match_positions


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
    return Renaming(dict(zip(vertices, counter)), dict(zip(edges, counter)))


def construct_rhs_patch(redex: Redex, fresh_base: int):
    """Build the replacement patch for a redex.

    Returns ``(rhs_instance, j_prime, h_r, sigma)`` where ``sigma`` pairs
    every new patch edge with the old patch edge it derives from.  A new
    edge keeps the label of its old edge; each end is the copy of the right
    type edge's pattern end or, at CONTEXT, the old edge's end at the slot
    that the rule's ``_step_plan`` names.  Fresh ids count up from ``fresh_base``.
    """
    rule, d, h_l = redex.rule, redex.decomposition, redex.h_l
    counter = itertools.count(fresh_base)
    inst = _instantiate_rhs(rule, counter)
    old = d._host.edges

    by_left: dict[int, list[int]] = {}
    for j in sorted(d._je):
        by_left.setdefault(h_l[j], []).append(j)

    jp_edges, h_r, sigma = {}, {}, {}
    ends = dict(inst.vmap)  # and CONTEXT, per old edge, to its context end
    for t, left, ts, tt, slot in rule._step_plan[2]:
        for j in by_left.get(left, ()):
            triple = old[j]
            if slot is not None:
                ends[CONTEXT] = triple[slot]
            eid = next(counter)
            jp_edges[eid], h_r[eid], sigma[eid] = (ends[ts], triple[1], ends[tt]), t, j
    vertices = frozenset(x for s, _, t in jp_edges.values() for x in (s, t))
    return inst, Graph._trusted(vertices, jp_edges), h_r, sigma


def apply_at(host: Graph, redex: Redex,
             fresh_base: int | None = None) -> tuple[Graph, StepCertificate]:
    """Perform the step at a redex; the host itself is untouched.

    The result keeps the context ids verbatim; the fresh pattern copy and the
    new patch edges take ids from ``fresh_base`` (default: above every id in
    the host and the rule).  It equals ``patch_compose`` of the context, the
    new patch and the new match, edge order included.
    """
    result = host._draft()
    return result, _step(result, redex, fresh_base)


def _step(g: Graph, redex: Redex, fresh_base: int | None) -> StepCertificate:
    """Edit ``g``, a draft of the redex's host, into the step's result."""
    rule = redex.rule
    floor = max(g.max_id(), rule.rhs.pattern.max_id()) + 1
    if fresh_base is None:
        fresh_base = floor
    elif fresh_base < floor:
        raise ValueError(f"fresh base {fresh_base} collides with existing ids "
                         f"(needs at least {floor})")
    inst, j_prime, h_r, sigma = construct_rhs_patch(redex, fresh_base)
    vmap = inst.vmap
    g._replace(redex.decomposition, j_prime, vmap.values(),
               {inst.emap[e]: (vmap[s], lab, vmap[t])
                for e, (s, lab, t) in rule.rhs.pattern.edges.items()})
    return StepCertificate(redex, inst, j_prime, h_r, sigma)


def verify_step(host: Graph, result: Graph, cert: StepCertificate) -> bool:
    """Re-check a certificate against the declarative step conditions.

    Verifies both compositions, both adherence maps, and per right type edge
    that sigma restricts to a label-preserving, context-respecting bijection
    onto the corresponding left patch edges.  Malformed certificates count
    as failures rather than raising.
    """
    return _redex_ok(host, cert.redex) and _rewritten(cert) == result


def _false_on_error(check):
    """Malformed certificates count as failures rather than raising."""
    @functools.wraps(check)
    def guarded(*args):
        try:
            return check(*args)
        except (PgrError, KeyError, ValueError):
            return False
    return guarded


@_false_on_error
def _redex_ok(host: Graph, redex: Redex) -> bool:
    """The left half: the decomposition composes to the host, its match is
    the image of the left pattern, and the left map adheres."""
    rule, d = redex.rule, redex.decomposition
    return (patch_compose(d.context, d.patch, d.match) == host
            and rename_graph(rule.lhs.pattern, redex.embedding) == d.match
            and adherence_ok(d.patch, rule.lhs.ptype,
                             match_positions(rule.lhs.pattern, redex.embedding),
                             redex.h_l))


@_false_on_error
def _rewritten(cert: StepCertificate) -> Graph | bool:
    """The right half: the result that the old context, the new patch and
    the new match compose to, if the right map adheres and sigma, defined
    on exactly the new patch edges, passes ``_sigma_ok``; else False."""
    rule = cert.redex.rule
    result = patch_compose(cert.redex.decomposition.context, cert.j_prime,
                           rename_graph(rule.rhs.pattern, cert.rhs_instance))
    return (adherence_ok(cert.j_prime, rule.rhs.ptype,
                         match_positions(rule.rhs.pattern, cert.rhs_instance), cert.h_r)
            and set(cert.sigma) == set(cert.j_prime.edges)
            and _sigma_ok(cert) and result)  # a Graph is always true


def _sigma_ok(cert: StepCertificate) -> bool:
    """Per right type edge, sigma is a bijection onto the old patch edges of
    its trace image that keeps labels and the context vertex touched.  The
    new and old patch edges are grouped by type edge once."""
    redex = cert.redex
    rule, patch, t_r = redex.rule, redex.decomposition.patch, redex.rule.rhs.ptype
    new, old = {}, {}
    for e, t in cert.h_r.items():
        new.setdefault(t, []).append(e)
    for j, t in redex.h_l.items():
        old.setdefault(t, []).append(j)
    for t in t_r.edges:
        new_edges = new.get(t, [])
        if sorted(cert.sigma[e] for e in new_edges) != sorted(old.get(rule.trace[t], [])):
            return False
        for e in new_edges:
            j = cert.sigma[e]
            if cert.j_prime.label(e) != patch.label(j):
                return False
            if not (context_of(e, cert.h_r, cert.j_prime, t_r)
                    <= context_of(j, redex.h_l, patch, rule.lhs.ptype)):
                return False
    return True


def brute_force_step_oracle(host: Graph, redex: Redex) -> list[Graph]:
    """The result the step conditions allow, derived from them alone.

    The left half of ``verify_step`` checks the redex first; a failing one
    yields ``[]``.  The conditions then fix the new patch up to the
    numbering of its edges: per right type edge, sigma pairs one new edge
    with each old edge of its trace image, and the new edge keeps that
    edge's label, takes the copies of the type edge's pattern ends, and, at
    CONTEXT, must touch the context vertex its old edge touches.  So one
    candidate is built, its new edges numbered after the right-pattern
    instance, and the right half of ``verify_step`` composes and decides it
    at once: the result is ``[]`` or its canonical form.  No other context
    end or pairing can pass ``_sigma_ok``, and a candidate that passes with
    another label arrangement is this one with its new edges renumbered.
    """
    if not _redex_ok(host, redex):
        return []
    rule, d = redex.rule, redex.decomposition
    counter = itertools.count(max(host.max_id(), rule.rhs.pattern.max_id()) + 1)
    inst = _instantiate_rhs(rule, counter)

    by_left: dict[int, list[int]] = {}
    for j in sorted(d.patch.edges):
        by_left.setdefault(redex.h_l[j], []).append(j)
    jp_edges, h_r, sigma = {}, {}, {}
    for t, type_ends in sorted(rule.rhs.ptype.edges.items()):
        for j in by_left.get(rule.trace[t], []):
            ctx = context_of(j, redex.h_l, d.patch, rule.lhs.ptype)
            s, t2 = (min(ctx) if x == CONTEXT else inst.vmap[x] for x in type_ends)
            e = next(counter)
            jp_edges[e], h_r[e], sigma[e] = (s, d.patch.label(j), t2), t, j

    j_prime = Graph({x for s, _, t2 in jp_edges.values() for x in (s, t2)}, jp_edges)
    candidate = _rewritten(StepCertificate(redex, inst, j_prime, h_r, sigma))
    return [] if candidate is False else [canonical_form(candidate)]


def successors(host: Graph, system: dict[str, QuasiRule],
               dedup: bool = True) -> tuple[list[tuple[str, Graph]], bool]:
    """All one-step results over all rules of the system, in rule order.

    With ``dedup`` the list keeps one representative per isomorphism class.
    The flag tells whether some redex list was cut off at the map cap
    (``PGR_MAX_MAPS``), so results may be missing.
    """
    out, _, truncated = _expand(host, system, set() if dedup else None)
    return out, truncated


def _expand(host: Graph, system: dict[str, QuasiRule],
            seen: set[Graph] | None) -> tuple[list[tuple[str, Graph]], set[str], bool]:
    """``successors`` and the names of the rules with a redex; with a ``seen``
    set, a result is kept only if its canonical form is new, and adds it."""
    out, fired, results, truncated = [], set(), set(), False
    for name, rule in system.items():
        redexes, cut = find_redexes(host, rule)
        truncated = truncated or cut
        if redexes:
            fired.add(name)
        for redex in redexes:
            result, _ = apply_at(host, redex)
            if seen is not None:
                if result in results:  # an exact repeat needs no labelling
                    continue
                results.add(result)
                if (key := canonical_form(result)) in seen:
                    continue
                seen.add(key)
            out.append((name, result))
    return out, fired, truncated


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
    from those vertices.  The steps are those of ``apply_at``, but all edit
    one draft copy of ``host``, handed out at the end.  A step's
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
    sets = RedexSets(g, system)
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
            return g, trace
        name, entry, h_l = pool[0] if strategy == "first" else pool[rng.randrange(len(pool))]
        redex = sets.redex(name, entry, h_l)
        touched = {x for j in h_l for x in g.edges[j][::2]} | redex.embedding.image_vertices()
        cert = _step(g, redex, None)
        sets.advance(touched | cert.rhs_instance.image_vertices())
        mv, me = redex.match_summary()
        trace.append(StepRecord(name, mv, me, truncated))
    # One more look: the limit only matters if a redex is still there.
    if any(sets.entries(name)[0] for name in system):
        raise StepLimitReached(g, trace)
    return g, trace


def check_rule_determinism(rule: QuasiRule, hosts: list[Graph]) -> dict[str, int]:
    """Apply every redex at the default fresh base and at a far one; each
    result must be isomorphic to the first derivation at its location.

    Only meaningful for rules with a simple left patch type; quasi rules are
    rejected outright.
    """
    if not rule.deterministic:
        raise ValueError("rule is quasi; determinism is not claimed for it")
    checked = 0
    for host in hosts:
        redexes, _ = find_redexes(host, rule)
        by_location: dict[tuple, list[Redex]] = {}
        for redex in redexes:
            by_location.setdefault(redex.match_summary(), []).append(redex)
        for group in by_location.values():
            # Same decomposition: every derivation from it must agree up to
            # isomorphism, whatever instance ids or embedding variant.
            reference, _ = apply_at(host, group[0])
            for redex in group:
                base = max(host.max_id(), rule.rhs.pattern.max_id()) + 7919
                for variant in (apply_at(host, redex)[0],
                                apply_at(host, redex, fresh_base=base)[0]):
                    if find_isomorphism(reference, variant) is None:
                        raise DeterminismViolation(
                            f"derivations at one location differ on {host!r}")
                    checked += 1
    return {"hosts": len(hosts), "steps_checked": checked}
