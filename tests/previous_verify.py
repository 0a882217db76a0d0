"""The certificate checks as they were before each became a check on the
step's parts: ``_redex_ok``, which composed C, J and M back into the host,
and ``_rewritten``, which composed C, J' and M' into the result, on
``validate_patch`` with a scan per condition, ``patch_compose`` through the
checked ``Graph(...)``, ``adherence_ok`` on key sets, and ``_sigma_ok``
rescanning both maps per right type edge.  ``previous_checks()`` swaps both
halves into ``rewrite``, so ``verify_step`` and each half give their old
verdicts there.  ``previous_oracle`` is the oracle as it was before it built
each new patch edge from the old edge it pairs with: it tries every
arrangement of the old labels, every choice of context ends and, per
candidate, every pairing.
"""

import contextlib
import itertools
from collections.abc import Mapping

from pgr import rewrite
from pgr.exceptions import InvalidPatch, PgrError
from pgr.graph import Graph, canonical_form, rename_graph
from pgr.matching import Redex, context_of
from pgr.rewrite import StepCertificate, _false_on_error, _instantiate_rhs
from pgr.rules import CONTEXT, PatchType, match_positions


def validate_patch(c: Graph, j: Graph, m: Graph) -> list[str]:
    """Check that C, J and M form a decomposition; one message per violation."""
    out = []
    if c.vertices & m.vertices:
        out.append(f"context and match share vertices: {sorted(c.vertices & m.vertices)}")
    shared = sorted(e for e in m.edges if e in c.edges)
    if shared:
        out.append(f"context and match share edges: {shared}")
    overlap = sorted(e for e in j.edges if e in c.edges or e in m.edges)
    if overlap:
        out.append(f"patch edges reuse context/match edge ids: {overlap}")
    for e, (s, _, t) in j.sorted_edges():
        s_in_c, s_in_m = s in c.vertices, s in m.vertices
        t_in_c, t_in_m = t in c.vertices, t in m.vertices
        if not ((s_in_c and t_in_m) or (s_in_m and t_in_c) or (s_in_m and t_in_m)):
            out.append(f"patch edge {e} does not run between context and match "
                       f"or within the match")
    endpoints = {s for s, _, _ in j.edges.values()} | {t for _, _, t in j.edges.values()}
    extra = j.vertices - endpoints
    if extra:
        out.append(f"patch has isolated vertices: {sorted(extra)}")
    missing = endpoints - j.vertices
    if missing:
        out.append(f"patch endpoints missing from its vertex set: {sorted(missing)}")
    return out


def patch_compose(c: Graph, j: Graph, m: Graph) -> Graph:
    """Reassemble valid C, J and M into one graph, preserving all ids."""
    violations = validate_patch(c, j, m)
    if violations:
        raise InvalidPatch(violations)
    # Valid parts have pairwise disjoint edge ids, so one build suffices.
    return Graph(c.vertices | j.vertices | m.vertices, {**c.edges, **j.edges, **m.edges})


def adherence_ok(j: Graph, ptype: PatchType, at: Mapping[int, int],
                 mapping: Mapping[int, int]) -> bool:
    """Check a given map: total on the patch, and every patch edge, read
    through ``at``, has the shape of its type edge."""
    if set(mapping) != set(j.edges):
        return False
    return all(te in ptype.edges and
               (at.get(j.edges[e][0], CONTEXT), at.get(j.edges[e][2], CONTEXT)) == ptype.edges[te]
               for e, te in mapping.items())


@_false_on_error
def _sigma_ok(cert: StepCertificate) -> bool:
    """Per right type edge, sigma is a bijection onto the old patch edges of
    its trace image that keeps labels and the context vertex touched."""
    redex = cert.redex
    rule, d, t_r = redex.rule, redex.decomposition, redex.rule.rhs.ptype
    for t in t_r.edges:
        left = rule.trace[t]
        new_edges = sorted(e for e, te in cert.h_r.items() if te == t)
        old_edges = sorted(e for e, te in redex.h_l.items() if te == left)
        if sorted(cert.sigma[e] for e in new_edges) != old_edges:
            return False
        for e in new_edges:
            j = cert.sigma[e]
            if cert.j_prime.label(e) != d.patch.label(j):
                return False
            if not (context_of(e, cert.h_r, cert.j_prime, t_r)
                    <= context_of(j, redex.h_l, d.patch, rule.lhs.ptype)):
                return False
    return True


@_false_on_error
def _redex_ok(host: Graph, redex: Redex, je=None) -> bool:
    """The left half: the decomposition composes to the host, its match is
    the image of the left pattern, and the left map adheres.  The patch ids
    ``je`` that ``verify_step`` reads once are not used: it read its own."""
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


def _result_ok(host: Graph, result: Graph, cert: StepCertificate, je=None) -> bool:
    """The right half as a verdict; it reads the host through the
    decomposition, as the composition did, and not ``je``."""
    return _rewritten(cert) == result


@contextlib.contextmanager
def previous_checks():
    """Within the block, ``rewrite`` checks certificates with the two halves
    above; the oracle composes no graph, so there is nothing else to swap."""
    names = {"_redex_ok": _redex_ok, "_result_ok": _result_ok}
    saved = {name: getattr(rewrite, name) for name in names}
    try:
        for name, fn in names.items():
            setattr(rewrite, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(rewrite, name, fn)


@_false_on_error
def _candidate_ok(result: Graph, cert: StepCertificate, m_prime: Graph) -> bool:
    """What does not depend on sigma's values: the old context, the new
    patch and the new match ``m_prime`` compose to the result, the right map
    adheres, and sigma is defined on exactly the new patch edges."""
    rule = cert.redex.rule
    return (patch_compose(cert.redex.decomposition.context, cert.j_prime, m_prime) == result
            and adherence_ok(cert.j_prime, rule.rhs.ptype,
                             match_positions(rule.rhs.pattern, cert.rhs_instance), cert.h_r)
            and set(cert.sigma) == set(cert.j_prime.edges))


class BoundTooSmall(PgrError):
    """The search bound given to ``previous_oracle`` is below the size of
    the replacement patch."""


def previous_oracle(host: Graph, redex: Redex, size_bound: int = 12) -> list[Graph]:
    """Every result the step conditions allow: per right type edge, the old
    labels in every distinct arrangement and every choice of context ends;
    each candidate goes once through ``_candidate_ok`` and then through
    ``_sigma_ok`` with every per-type-edge bijection until one passes.
    Its new patch edges are numbered from the fresh base plus 1000; the
    redex is checked by the old left half."""
    if not _redex_ok(host, redex):
        return []
    rule = redex.rule
    d = redex.decomposition
    fresh_base = max(host.max_id(), rule.rhs.pattern.max_id()) + 1
    counter = itertools.count(fresh_base)
    inst = _instantiate_rhs(rule, counter)
    m_prime = rename_graph(rule.rhs.pattern, inst)
    t_r = rule.rhs.ptype

    by_left: dict[int, list[int]] = {}
    for j in sorted(d.patch.edges):
        by_left.setdefault(redex.h_l[j], []).append(j)

    needed = {t: len(by_left.get(rule.trace[t], ()))
              for t in t_r.edges}
    total = sum(needed.values())
    if total > size_bound:
        raise BoundTooSmall(f"replacement patch needs {total} edges, "
                            f"bound is {size_bound}")

    per_type_options: list[tuple[int, list[list[tuple[int, str, int]]]]] = []
    for t, (ts, tt) in sorted(t_r.edges.items()):
        old = by_left.get(rule.trace[t], [])
        if not old:
            per_type_options.append((t, [[]]))
            continue
        labels = sorted(d.patch.label(j) for j in old)
        ctx_choices = sorted({v for j in old
                              for v in context_of(j, redex.h_l, d.patch, rule.lhs.ptype)})
        sources = ctx_choices if ts == CONTEXT else [inst.vmap[ts]]
        targets = ctx_choices if tt == CONTEXT else [inst.vmap[tt]]
        slot_endpoints = [(s, t2) for s in sources for t2 in targets]
        combos = []
        seen = set()
        for label_perm in itertools.permutations(labels):
            if label_perm in seen:
                continue
            seen.add(label_perm)
            for ends in itertools.product(slot_endpoints, repeat=len(old)):
                combos.append([(s, lab, t2) for (s, t2), lab in zip(ends, label_perm)])
        per_type_options.append((t, combos))

    results: dict[Graph, Graph] = {}
    for pick in itertools.product(*[opts for _, opts in per_type_options]):
        jp_edges = {}
        h_r = {}
        slots_by_type = {}
        eid = itertools.count(fresh_base + 1000)
        for (t, _), triples in zip(per_type_options, pick):
            slots = []
            for s, lab, t2 in triples:
                e = next(eid)
                jp_edges[e] = (s, lab, t2)
                h_r[e] = t
                slots.append(e)
            slots_by_type[t] = slots
        vertices = {s for s, _, _ in jp_edges.values()} | \
                   {t2 for _, _, t2 in jp_edges.values()}
        j_prime = Graph(vertices, jp_edges)
        try:
            candidate = patch_compose(d.context, j_prime, m_prime)
        except PgrError:
            continue
        sigma_spaces = []
        for t, _ in per_type_options:
            old = by_left.get(rule.trace[t], [])
            sigma_spaces.append([dict(zip(slots_by_type[t], perm))
                                 for perm in itertools.permutations(old)])
        # Every sigma is defined on all slots, so the candidate part of the
        # check holds for all of them or for none.
        certs = (StepCertificate(redex, inst, j_prime, h_r,
                                 {e: j for part in parts for e, j in part.items()})
                 for parts in itertools.product(*sigma_spaces))
        first = next(certs)
        if _candidate_ok(candidate, first, m_prime) and \
                any(_sigma_ok(cert) for cert in itertools.chain([first], certs)):
            results.setdefault(canonical_form(candidate), candidate)
    return sorted(results,
                  key=lambda g: (len(g.vertices), tuple(sorted(g.edges.values()))))
