"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``
there.  Every measured process is a fresh interpreter running worker.py,
with TNNCOMPACT_THREADS removed from its environment.  Set-up is timed
SETUP_RUNS times, from just before a process starts to the end of its
warm-up, and the median is reported; the last of those processes goes on to
measure.  Metric names and units come from BENCHMARK.json: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The span
aggregates of a traced run are also written to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any error exits
nonzero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

SETUP_RUNS = 5
DEADLINE_S = 170.0
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    pass


def run_worker(cmd: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, timeout=remaining, text=True
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def layer_value(name: str, trace: dict) -> float:
    """Value of a per-layer metric: ``trace.<field>``, ``<layer>.self_s``,
    or ``<layer>.<function>.calls`` / ``.self_s``."""
    if name.startswith("trace."):
        overhead = trace["wall_s"] - trace["untraced_wall_s"]
        return {**trace, "overhead_s": overhead}[name.split(".", 1)[1]]
    base, _, field = name.rpartition(".")
    if base in trace["layers"]:
        return trace["layers"][base] / 1e9
    calls, self_ns = trace["functions"].get(base, (0, 0))
    return calls if field == "calls" else self_ns / 1e9


def summarize_trace(trace: dict, workload: str, seed: int) -> list[str]:
    wall, base = trace["wall_s"], trace["untraced_wall_s"]
    total = sum(trace["layers"].values()) or 1
    top = sorted(trace["layers"].items(), key=lambda kv: -kv[1])[:4]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(trace, indent=1) + "\n")
    return [
        f"traced job {wall:.3f} reference-s, untraced {base:.3f}: "
        f"tracing overhead {wall - base:.3f} ({100 * (wall / base - 1):.0f}%)",
        "top layers by self time (measured s): "
        + ", ".join(f"{k} {v / 1e9:.3f} s ({100 * v / total:.0f}%)" for k, v in top),
        f"spans per (function, parent): {path.relative_to(Path.cwd())}",
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tnncompact" / "__init__.py").is_file():
        print("perfbench: src/tnncompact not found; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k != "TNNCOMPACT_THREADS"}
    env["PYTHONHASHSEED"] = "0"  # the same hash order in every process
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        for k in range(SETUP_RUNS):
            last = k == SETUP_RUNS - 1
            before = [speed.reference() for _ in range(9)]
            t0 = time.monotonic()
            out = run_worker(cmd if last else cmd + ["--setup-only"], env, deadline)
            setups.append((out["ready"] - t0) * speed.scale(before + out["ready_refs"]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    lines = [
        f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed, "
        f"error_rate {failed / attempted:.6g}"
    ]
    if args.trace:
        defs = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], out["trace"]) for m in defs}
        lines += summarize_trace(out["trace"], args.workload, args.seed)
    else:
        defs = spec["end_to_end"]
        values = dict(out["metrics"], setup_s=statistics.median(setups))
        lines.append(
            f"{values['samples']} latency samples in {values['jobs']} jobs; median job "
            f"{values['raw_wall_s']:.3f} s measured, {values['wall_s']:.3f} reference-s; "
            f"setup_s is the median of {len(setups)} set-ups"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs}
    lines += [f"  {k:<48} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
