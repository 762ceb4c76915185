"""Run one workload in this interpreter and print one JSON line of raw results.

run.py starts this file in a fresh interpreter for every measured process; it
is not meant to be run by hand.  The library is imported from ``src/`` under
the current directory, which must be the root of a checkout.

The line carries ``ready``, the CLOCK_MONOTONIC time at which set-up ended
(import, input generation for the first job, one warm-up operation of each
kind), so that run.py can time set-up from before the process was started.
With ``--setup-only`` nothing else is done.  Otherwise a plain run repeats
jobs with fresh inputs until ``--seconds`` have passed, at least
MIN_SAMPLED_OPS latencies were taken and the workload's ``min_jobs`` jobs
ran; a traced run times the first job once untraced and once traced.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

# p95 then has at least ten samples beyond it.
MIN_SAMPLED_OPS = 200
# Warm-up inputs are fixed, so set-up time does not vary with the run seed.
WARMUP_SEED = 0
MAX_REPORTED_FAILURES = 5


def import_library(src: Path) -> None:
    sys.path.insert(0, str(src))
    import tnncompact

    found = Path(tnncompact.__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"imported tnncompact from {found}, expected {src}")


class JobResult:
    def __init__(self):
        self.wall = 0.0  # reference-seconds
        self.raw_wall = 0.0  # seconds
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # reference-seconds, sampled ops only


def execute(op, mark=lambda: None):
    """Call the library, then check its result.  ``mark()`` is called the
    moment the call returns or raises, so the check is outside a span that
    ends there.  Returns (ok, why it failed, what mark returned).

    An op that raises is a failed op, not a failed run.
    """
    try:
        result = op.fn(*op.args)
    except Exception:
        return False, traceback.format_exc(), mark()
    end = mark()
    try:
        ok = op.check(result) is True
    except Exception:
        return False, traceback.format_exc(), end
    return ok, "wrong answer", end


def report(op, why: str, failed: int, log) -> None:
    if failed <= MAX_REPORTED_FAILURES:
        print(f"op {op.kind} failed: {why}", file=log)


def run_job(ops, log=sys.stderr) -> JobResult:
    """Run ops in order; a wrong answer or an exception fails that op only.

    Each op's time, less the time the speedometer's handler took during it,
    is scaled by the speedometer's samples around it.
    """
    res = JobResult()
    clock = time.perf_counter
    spans = []
    with speed.Speedometer() as meter:
        for op in ops:
            spent = meter.spent
            t0 = clock()
            ok, why, (t1, spent1) = execute(op, lambda: (clock(), meter.spent))
            spans.append((t0, t1, t1 - t0 - (spent1 - spent)))
            res.attempted += 1
            if not ok:
                res.failed += 1
                report(op, why, res.failed, log)
        # samples just after the last op
        time.sleep(meter.window)
    for op, (t0, t1, dt) in zip(ops, spans):
        t = dt * meter.scale(t0, t1)
        res.wall += t
        res.raw_wall += dt
        if op.sampled:
            res.latencies.append(t)
    return res


def quantile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest x with at least q of the data <= x."""
    k = max(1, math.ceil(q * len(sorted_xs) - 1e-9))
    return sorted_xs[k - 1]


def warm_up(wl, log=sys.stderr) -> tuple[int, int]:
    """Run one op of each sampled kind, from fixed inputs, untimed.
    Returns (attempted, failed)."""
    seen = {}
    for op in wl.job(random.Random(WARMUP_SEED)):
        if op.sampled:
            seen.setdefault(op.kind, op)
    failed = 0
    for op in seen.values():
        ok, why, _ = execute(op)
        if not ok:
            failed += 1
            report(op, why, failed, log)
    return len(seen), failed


def plain_metrics(results: list[JobResult]) -> dict:
    lat = sorted(x for r in results for x in r.latencies)
    walls = [r.wall for r in results]
    ok_ops = sum(r.attempted - r.failed for r in results)
    return {
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(r.raw_wall for r in results),
        "ops_per_s": ok_ops / sum(walls),
        "op_ms_p50": 1000 * quantile(lat, 0.50),
        "op_ms_p95": 1000 * quantile(lat, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": len(lat),
        "jobs": len(results),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_library(Path.cwd() / "src")
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    first_job = wl.job(random.Random(workloads.job_seed(args.seed, 0)))
    warm_attempted, warm_failed = warm_up(wl)
    ready = time.monotonic()
    # taken after set-up ended, to scale its time in run.py
    out = {"ready": ready, "ready_refs": [speed.reference() for _ in range(9)]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        import tracer

        untraced = run_job(first_job)
        t = tracer.Tracer()
        t.install()
        try:
            traced = run_job(first_job)
        finally:
            t.uninstall()
        results = [untraced, traced]
        out["trace"] = {
            "untraced_wall_s": untraced.wall,
            "wall_s": traced.wall,
            "raw_untraced_wall_s": untraced.raw_wall,
            "raw_wall_s": traced.raw_wall,
            "functions": {k: list(v) for k, v in t.by_function().items()},
            "layers": t.by_layer(),
            "spans": [[name, parent, *agg] for (name, parent), agg in t.spans.items()],
        }
    else:
        results = []
        window = time.monotonic()
        k = 0
        while True:
            ops = first_job if k == 0 else wl.job(
                random.Random(workloads.job_seed(args.seed, k))
            )
            results.append(run_job(ops))
            k += 1
            if (
                time.monotonic() - window >= args.seconds
                and sum(len(r.latencies) for r in results) >= MIN_SAMPLED_OPS
                and len(results) >= wl.min_jobs
            ):
                break
        out["metrics"] = plain_metrics(results)
    out["attempted"] = warm_attempted + sum(r.attempted for r in results)
    out["failed"] = warm_failed + sum(r.failed for r in results)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
