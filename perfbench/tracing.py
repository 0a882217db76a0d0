"""Per-layer spans around pgr's public functions, recorded from outside pgr.

``Tracer.install`` rebinds each traced function, at every pgr module that
holds it, to a wrapper that records one span (id, parent id, name, start,
end, result counts); ``uninstall`` puts the originals back.  Start and end
come from the speed probe's clock, which leaves out the probe's pauses.  Spans stay in
memory and are written out when the benchmark ends.  Hot leaves such as
``edge_adheres`` and ``Graph.__init__`` are deliberately not wrapped.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict

# (module, attribute path, counts).  Each count turns a return value into a
# number that is summed over the calls, such as the results a call produced.
TRACED = [
    ("matching", "find_pattern_embeddings", {"results": len}),
    ("matching", "find_redexes", {"results": lambda r: len(r[0])}),
    ("graph", "decompose_at", {}),
    ("rules", "PatchType.renamed", {}),
    ("rules", "enumerate_adherence_maps",
     {"results": lambda r: len(r[0]), "truncated": lambda r: int(r[1])}),
    ("graph", "canonical_form", {}),
    ("rewrite", "apply_at", {}),
    ("rewrite", "construct_rhs_patch", {}),
    ("rewrite", "verify_step", {"accepted": int}),
    ("graph", "graph_union", {}),
    ("graph", "rename_graph", {}),
    ("rules", "adherence_ok", {}),
    ("rewrite", "brute_force_step_oracle", {}),
    ("rewrite", "successors", {}),
    ("rewrite", "normalize", {"steps": lambda r: len(r[1])}),
    ("systems", "detect_deadlock", {}),
    ("systems", "ds_explore", {}),
]

# Name of the benchmark's own root span around one operation.
OP = "bench.op"


def call(fn, *args):
    """Call ``fn``: the untraced counterpart of ``Tracer.op``."""
    return fn(*args)


class Tracer:
    """Spans around the functions in ``TRACED`` while installed; ``op``
    wraps one benchmark operation in a root span."""

    def __init__(self, modules: dict, clock):
        self.modules = modules
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []
        self.op = self.span(OP, call)

    def span(self, name: str, fn, counts=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        counters = tuple(counts.values()) if counts else ()

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, name, start, end,
                          tuple(c(result) for c in counters)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, path, counts in TRACED:
            name = f"{module}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(self.modules[module], cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, counts))
                continue
            original = getattr(self.modules[module], path)
            wrapper = self.span(name, original, counts)
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if (modname == "pgr" or modname.startswith("pgr.")) \
                        and getattr(mod, path, None) is original:
                    self._saved.append((mod, path, original))
                    setattr(mod, path, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_stats(spans: list[tuple], scale: float) -> dict[str, dict]:
    """Calls, self time and counts per span name.

    Self time is a span's duration minus the durations of its direct
    children, times ``scale`` (reference seconds per measured second);
    spans nest strictly because the benchmark is single-threaded.
    """
    names = {f"{m}.{p}": tuple(c) for m, p, c in TRACED}
    child: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        child[parent] += end - start
    stats: dict[str, dict] = {}
    for sid, _, name, start, end, counts in spans:
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start - child[sid]) * scale
        for stat, n in zip(names.get(name, ()), counts):
            s[stat] = s.get(stat, 0) + n
    return stats


COUNT_STATS = ("calls", "results", "truncated", "accepted", "steps")


def counts_of(stats: dict[str, dict]) -> dict[str, int]:
    return {f"{name}.{k}": v for name, s in stats.items()
            for k, v in s.items() if k in COUNT_STATS}


def per_layer_metrics(rounds: list[dict[str, dict]], overheads: list[float],
                      untraced: list[float]) -> dict[str, dict]:
    """The per-layer metrics of a traced run, per round of work.

    Counts are those of one round (every round does the same work); self
    times are medians over the traced rounds.
    """
    first = rounds[0]

    def get(name, stat):
        return first.get(name, {}).get(stat, 0)

    def self_s(name):
        return statistics.median(r.get(name, {}).get("self_s", 0.0) for r in rounds)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for module, path, counts in TRACED:
        name = f"{module}.{path}"
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        for stat in counts:
            if stat != "accepted":
                out[f"{name}.{stat}"] = (get(name, stat), "count")
    out["rewrite.verify_step.accept_ratio"] = (
        ratio(get("rewrite.verify_step", "accepted"), get("rewrite.verify_step", "calls")),
        "ratio")
    out["matching.redex_yield"] = (
        ratio(get("matching.find_redexes", "results"),
              get("matching.find_pattern_embeddings", "results")), "ratio")
    out["matching.decompositions_per_step"] = (
        ratio(get("graph.decompose_at", "calls"), get("rewrite.apply_at", "calls")), "ratio")
    out["bench.op.calls"] = (get(OP, "calls"), "count")
    out["bench.round_untraced_s"] = (statistics.median(untraced), "s")
    overhead = statistics.median(overheads)
    out["bench.trace_overhead_s"] = (overhead, "s")
    out["bench.trace_overhead_frac"] = (overhead / statistics.median(untraced), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def write_spans(path, spans: list[tuple], header: dict) -> None:
    """One JSON line for the header, then one per span, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write(json.dumps(header) + "\n")
        for sid, parent, name, start, end, counts in spans:
            f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                "start_s": start, "end_s": end,
                                "counts": list(counts)}) + "\n")
