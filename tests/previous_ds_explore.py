"""``ds_explore`` as it was before the send budget moved into the state graph.

The budgets live in a dict per state, keyed by process vertex: each step's
result is mapped back to its host through ``_step_vertex_map``, a spent
sender's ``snd-b`` redexes are listed and then skipped, and the budgets are
folded into the seen-set key as ``send-budget`` loops (``_budget_key``).
Kept as the reference that the rewriting walk is compared with, and as the
source of the DS states that other tests sample.
"""

import functools
import itertools

from pgr.graph import Graph, canonical_form
from pgr.matching import find_redexes
from pgr.rewrite import apply_at
from pgr.systems import (
    DsExploration,
    DsState,
    announce_safe,
    dijkstra_scholten_system,
    ds_initial_network,
)

TOPOLOGIES = {
    "line3": [(0, 1), (1, 2)],
    "star4": [(0, 1), (0, 2), (0, 3)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
}


def _step_vertex_map(host, cert):
    """Where each surviving host vertex ends up in the step result."""
    out = {v: v for v in host.vertices - cert.redex.embedding.image_vertices()}
    inst = cert.rhs_instance.vmap
    for p, hv in cert.redex.embedding.vmap.items():
        if p in inst:
            out[hv] = inst[p]
    return out


def _budget_key(g, budgets):
    eid = itertools.count(g.max_id() + 1)
    edges = dict(g.edges)
    for v in sorted(g.vertices):
        for _ in range(budgets.get(v, 0)):
            edges[next(eid)] = (v, "send-budget", v)
    return canonical_form(Graph(g.vertices, edges))


def previous_ds_explore(initial, max_sends_per_process=2, max_depth=None):
    g0 = initial.graph if isinstance(initial, DsState) else initial
    system = dijkstra_scholten_system()

    budgets0 = {v: max_sends_per_process for v in g0.vertices}
    frontier = [(g0, budgets0)]
    seen = {_budget_key(g0, budgets0)}
    states = []
    announce_states = []
    violations = []
    truncated = False
    depth = 0
    while frontier:
        if max_depth is not None and depth > max_depth:
            truncated = True
            break
        next_frontier = []
        for g, budgets in frontier:
            states.append(g)
            for name, rule in system.items():
                redexes, _ = find_redexes(g, rule)
                if name == "announce" and redexes:
                    announce_states.append(g)
                    if not announce_safe(g):
                        violations.append(g)
                for redex in redexes:
                    if name == "snd-b" and budgets[redex.embedding.vmap[0]] <= 0:
                        continue
                    succ, cert = apply_at(g, redex)
                    vmap = _step_vertex_map(g, cert)
                    new_budgets = {vmap[v]: n for v, n in budgets.items()}
                    if name == "snd-b":
                        sender = vmap[redex.embedding.vmap[0]]
                        new_budgets[sender] -= 1
                    key = _budget_key(succ, new_budgets)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append((succ, new_budgets))
        frontier = next_frontier
        depth += 1
    return DsExploration(states, announce_states, violations, truncated)


@functools.cache
def previous_walk(topology, sends, max_depth=None):
    """The reference walk of a named topology with initiator 0."""
    return previous_ds_explore(ds_initial_network(TOPOLOGIES[topology], 0), sends, max_depth)
