"""pgr benchmark: one workload per run, closed loop, single thread.

    python3 perfbench/run.py --workload deadlock --seed 1 --seconds 15 --trace 0

The seed builds the workload's inputs; pgr sees only those inputs.  A run
sets the workload up several times (fresh imports of pgr each time) and
reports the median set-up time, then repeats identical rounds of
operations until ``--seconds`` have passed, one call at a time.  Every
output is checked against an independent reference (``reference.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced rounds and reports
per-layer calls, self times and result counts per round, plus the tracing
overhead; the spans of the first traced round are written to
``perfbench/out/``.  Provenance goes to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
HASH_SEED = "0"
UNITS = {"throughput": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}
MODULES = ("graph", "rules", "matching", "rewrite", "systems")

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_pgr() -> dict:
    """Import pgr afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "pgr" or m.startswith("pgr.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pgr = importlib.import_module("pgr")
    if Path(pgr.__file__).resolve().parent != SRC / "pgr":
        raise ImportError(f"pgr imported from {pgr.__file__}, not from {SRC}")
    return {m: importlib.import_module(f"pgr.{m}") for m in MODULES}


def set_up(name: str, seed: int, clock):
    """Import pgr and build the workload ``SETUPS`` times; keep the last."""
    times = []
    for _ in range(SETUPS):
        mark = clock.start()
        pgr = import_pgr()
        workload = workloads.WORKLOADS[name](pgr, seed)
        times.append(clock.cost(mark))
    return pgr, workload, statistics.median(times)


def provenance(args, workload) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    sources = hashlib.sha256()
    for path in sorted((SRC / "pgr").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "commit": commit,
        "source_sha256": sources.hexdigest()[:16], "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "input_digest": workload.digest,
    }


def more_rounds(start: float, rounds: int, seconds: float) -> bool:
    """Whether to run another round: the run ends nearest ``seconds``."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


def run_untraced(workload, seconds: float, clock):
    meter = workloads.Meter(tracing.call, clock)
    start = time.perf_counter()
    rounds = 0
    while more_rounds(start, rounds, seconds):
        meter.new_round()
        workload.round(meter)
        rounds += 1
    return meter, rounds


def run_traced(pgr, workload, seconds: float, probe):
    """Alternate untraced and traced rounds; per-layer stats per traced round."""
    tracer = tracing.Tracer(pgr, probe.now)
    plain = workloads.Meter(tracing.call, probe)
    traced = workloads.Meter(tracer.op, probe)
    untraced_s, overheads, stats, first_spans = [], [], [], None
    start = time.perf_counter()
    while more_rounds(start, len(stats), seconds):
        mark = probe.start()
        plain.new_round()
        workload.round(plain)
        untraced_s.append(probe.cost(mark))
        mark, began = probe.start(), probe.now()
        traced.new_round()
        tracer.install()
        try:
            workload.round(traced)
        finally:
            tracer.uninstall()
        cost = probe.cost(mark)
        spans = tracer.take()
        stats.append(tracing.layer_stats(spans, cost / (probe.now() - began)))
        if first_spans is None:
            first_spans = spans
        overheads.append(cost - untraced_s[-1])
    return plain, traced, stats, first_spans, untraced_s, overheads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # String hashing decides dict and set layouts, which move timings by a
    # few percent between processes; one fixed hash seed makes runs repeat.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *(sys.argv[1:] if argv is None else argv)], env)
    if not (SRC / "pgr" / "__init__.py").is_file():
        print(f"pgr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.trace:
        with speed.SpeedProbe() as probe:
            _, workload, setup_s = set_up(args.workload, args.seed, probe)
            meter, rounds = run_untraced(workload, args.seconds, probe)
        values = meter.metrics()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = setup_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
        meters = [meter]
        info = provenance(args, workload)
        print(json.dumps({"provenance": info}), file=sys.stderr)
        print(json.dumps({"rounds": rounds, "calls_per_round": len(meter.rounds[0]["samples"]),
                          "speed_samples": len(probe.samples),
                          "duplicate_classes": getattr(workload, "duplicate_classes", 0)}),
              file=sys.stderr)
    else:
        with speed.SpeedProbe() as probe:
            pgr, workload, _ = set_up(args.workload, args.seed, probe)
            plain, traced, stats, spans, untraced_s, overheads = run_traced(
                pgr, workload, args.seconds, probe)
        info = provenance(args, workload)
        print(json.dumps({"provenance": info}), file=sys.stderr)
        metrics = tracing.per_layer_metrics(stats, overheads, untraced_s)
        metrics["graph.canonical_form.duplicate_classes"] = {
            "value": getattr(workload, "duplicate_classes", 0), "unit": "count"}
        meters = [plain, traced]
        counts = [tracing.counts_of(s) for s in stats]
        differing = sorted({k for c in counts[1:] for k in set(c) | set(counts[0])
                            if c.get(k) != counts[0].get(k)})
        if differing:
            print(json.dumps({"counts_differ_between_rounds": differing}), file=sys.stderr)
        tracing.write_spans(
            OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", spans,
            {"provenance": info, "counts": counts[0], "rounds": len(stats),
             "counts_differ_between_rounds": differing})

    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
