"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workloads deadlock grammar --seeds 1-10
    python3 perfbench/repeat.py --workloads certify --seeds 7,7 --trace 1

Each run is a fresh ``run.py`` process, one after another.  For every
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to a third of the metric's bound in
``BENCHMARK.json``.  With ``--trace 1``, runs that share a seed must report
identical per-layer counts; any count that differs is listed.  The full
record goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    for line in proc.stderr.splitlines():
        if line.startswith('{"provenance"'):
            result["provenance"] = json.loads(line)["provenance"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    status = 0
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']} "
                  f"wall={runs[-1]['wall_s']:.1f}s", file=sys.stderr)
        summary = {}
        if len(runs) > 1:
            for metric in runs[0]["metrics"]:
                summary[metric] = summarise([r["metrics"][metric]["value"] for r in runs])
        differing = {}
        if args.trace:
            by_seed: dict[int, list[dict]] = {}
            for r in runs:
                by_seed.setdefault(r["seed"], []).append(r["metrics"])
            for seed, group in by_seed.items():
                for metric, first in group[0].items():
                    if first["unit"] == "count" and any(
                            g[metric]["value"] != first["value"] for g in group[1:]):
                        differing.setdefault(seed, []).append(metric)
            status |= bool(differing)
        status |= not all(r["correct"] for r in runs)
        record[workload] = {"runs": runs, "summary": summary, "counts_differ": differing}
        print(f"\n{workload}")
        for metric, s in summary.items():
            bound = bounds.get(metric)
            limit = f"{bound / 3:.3f}" if bound is not None else "-"
            print(f"  {metric:45s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} (limit {limit})")
        for seed, metrics in differing.items():
            print(f"  seed {seed}: counts differ between runs: {', '.join(metrics)}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
