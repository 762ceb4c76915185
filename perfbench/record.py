"""Run every workload on several seeds and record the results with the
environment they were measured in.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Run from the repository root.  For each workload and seed it runs
``perfbench/run.py`` untraced, and once traced on the first seed, then
writes per metric the ten values, their median and quartiles, and the spread
(interquartile distance over the median) next to the bound in
BENCHMARK.json.  A spread above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {out['failed']} operations failed")
    return out


def environment() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(Path("src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_lines": src_lines,
    }


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {
        "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "steady": spread < bound / 3, "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", default=None, help="write the record here as JSON")
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = [run(name, s, spec["run_seconds"], 0) for s in seeds]
        metrics = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {"unit": m["unit"], **summarize(vals, bounds[m["name"]])}
            s = metrics[m["name"]]
            flag = "" if s["steady"] else "  <-- spread above a third of the bound"
            print(f"{name:8} {m['name']:12} median {s['median']:12.6g} {m['unit']:4} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
        traced = run(name, seeds[0], spec["run_seconds"], 1)["metrics"]
        layers = {
            k[: -len(".self_s")]: v["value"] for k, v in traced.items()
            if k.count(".") == 1 and k.endswith(".self_s")
        }
        total = sum(layers.values())
        record["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "traced_seed": seeds[0],
            "layer_self_share": {
                k: round(v / total, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
            },
            "trace_overhead_s": traced["trace.overhead_s"]["value"],
            "trace_untraced_wall_s": traced["trace.untraced_wall_s"]["value"],
        }
        print(f"{name:8} layer self-time shares: {record['workloads'][name]['layer_self_share']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
