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
from .graph import Graph, Renaming, canonical_form, find_isomorphism, patch_edges
from .matching import Redex, RedexSets, _twin_redexes, find_redexes
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
    """Re-check a certificate against the step conditions, on the step's
    parts: ``_redex_ok`` reads the redex off the host, ``_result_ok``
    compares the result with ``_derived``'s; neither derives C, J or M.  A
    malformed certificate is a failure, not an exception."""
    return _redex_ok(host, cert.redex) and _result_ok(host, result, cert)


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
def _redex_ok(host: Graph, redex: Redex) -> bool:
    """The left half: the decomposition splits ``host``, its match is the
    image of the left pattern, its patch ids are the edges outside the match
    that touch it, and each patch edge's host triple adheres under ``h_l``."""
    d, emb, pattern, types = (redex.decomposition, redex.embedding, redex.rule.lhs.pattern,
                              redex.rule.lhs.ptype.edges)
    vmap, at = emb.vmap, match_positions(pattern, emb)
    return ((d._host is host or d._host == host) and at.keys() == d._mv
            and {emb.emap[p]: (vmap[s], lab, vmap[t]) for p, (s, lab, t) in pattern.edges.items()}
            == {e: host.edges[e] for e in d._me}
            and redex.h_l.keys() == set(d._je) == set(patch_edges(host, d._mv, d._me))
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
def _result_ok(host: Graph, result: Graph, cert: StepCertificate) -> bool:
    """The right half: the result is ``_derived``'s for the certificate's
    instance and pairing (one dict comparison, no Python loop over the
    host's edges), J' is its part at sigma's keys, and the old patch holds
    every edge at the match."""
    d, jp = cert.redex.decomposition, cert.j_prime
    return (_derived(host, cert.redex, cert.rhs_instance, cert.h_r, cert.sigma)
            == (result.vertices, result.edges)
            and jp.edges == {e: result.edges[e] for e in cert.sigma}
            and jp.vertices == {x for s, _, t in jp.edges.values() for x in (s, t)}
            and set(d._je).issuperset(patch_edges(host, d._mv, d._me)))


def brute_force_step_oracle(host: Graph, redex: Redex) -> list[Graph]:
    """The result the step conditions allow, from them alone: ``[]`` or its
    canonical form; ``[]`` for a redex that fails the left half of
    ``verify_step``.  The conditions fix the result up to the numbering of
    its new edges, so only the pairing they force is built: per right type
    edge in id order, a new edge for each old patch edge of its trace image
    in id order, numbered after the right-pattern instance.  ``_derived``
    gives the result for it."""
    if not _redex_ok(host, redex):
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

    With ``dedup`` the list keeps one representative per isomorphism class
    and builds no redex it skips (``_expand``); without it, every redex is
    applied.  The flag: a redex list was cut at the map cap (``PGR_MAX_MAPS``).
    """
    out, _, truncated = _expand(host, system, set() if dedup else None)
    return out, truncated


def _expand(host: Graph, system: dict[str, QuasiRule],
            seen: set[Graph] | None) -> tuple[list[tuple[str, Graph]], set[str], bool]:
    """``successors`` and the names of the rules with a redex, with the map cap
    read once; with a ``seen`` set, a result is kept only if its canonical form
    is new, and adds it.  There a deterministic rule steps only at its
    ``_twin_redexes``: the others differ by a host automorphism (twins permuted,
    parallel edges of equal triples swapped), which carries adherence over, and
    the seen set would drop their results, so they get no patch, maps or redex."""
    out, fired, truncated, cap = [], set(), False, default_map_cap()
    for name, rule in system.items():
        redexes, cut = ((_twin_redexes(host, rule, cap), False) if seen is not None
                        and rule.deterministic else find_redexes(host, rule))
        truncated = truncated or cut
        if redexes:
            fired.add(name)
        for redex in redexes:
            result, _ = apply_at(host, redex)
            if seen is not None:
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
    from those vertices.  A step touches its match, the vertices it creates
    and each context end of J with an edge whose type edge the rule does not
    carry (``QuasiRule.carried``); at a context end whose edges are all
    carried, the embeddings keep their place and only their patch ids and
    maps are read again.  The steps are those of ``apply_at``, but all edit
    one draft copy of ``host``, with a mutable vertex set and a stack of its
    ids, handed out, frozen, at the end.  A step's
    record is ``truncated`` when a redex list it read was capped by the map
    cap (``PGR_MAX_MAPS``), so it chose from an incomplete list.  Raises
    StepLimitReached (carrying the partial trace) if no normal form is found
    within ``max_steps``.  The result keeps its step-local ids, so trace
    ids point into the intermediate graphs.
    """
    if strategy not in ("first", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random_module.Random(seed)
    g = host._draft(many=True)
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
        cert = _step(g, redex, None)
        sets.advance(touched | cert.rhs_instance.image_vertices(), carried - touched)
        mv, me = redex.match_summary()
        trace.append(StepRecord(name, mv, me, truncated))
    # One more look: the limit only matters if a redex is still there.
    if any(sets.entries(name)[0] for name in system):
        raise StepLimitReached(g._handout(), trace)
    return g._handout(), trace


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
