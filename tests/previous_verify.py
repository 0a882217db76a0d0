"""The certificate checks as they were before each became one pass over
the parts it reads: ``validate_patch`` with a scan per condition,
``patch_compose`` through the checked ``Graph(...)``, ``adherence_ok`` on
key sets, and ``_sigma_ok`` rescanning both maps per right type
edge.  ``previous_checks()`` runs ``verify_step``, its two halves and the
oracle on them, so each verdict can be compared with today's.
"""

import contextlib
from collections.abc import Mapping

from pgr import rewrite
from pgr.exceptions import InvalidPatch
from pgr.graph import Graph
from pgr.matching import context_of
from pgr.rewrite import StepCertificate, _false_on_error
from pgr.rules import PatchType, patch_shape


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
    return all(te in ptype.edges and patch_shape(j, e, at) == ptype.edges[te]
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


@contextlib.contextmanager
def previous_checks():
    """Within the block, ``rewrite`` checks certificates with the functions
    above."""
    names = {"patch_compose": patch_compose, "adherence_ok": adherence_ok,
             "_sigma_ok": _sigma_ok}
    saved = {name: getattr(rewrite, name) for name in names}
    try:
        for name, fn in names.items():
            setattr(rewrite, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(rewrite, name, fn)
