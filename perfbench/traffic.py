"""pytest plugin: count the benchmark's operations in a test run, by rank.

    PYTHONPATH=src:perfbench python3 -m pytest -q -p traffic -p no:cacheprovider tests

Counts the outermost calls of each library function the workloads time
(nested calls of the same function are part of the outer one), keyed by the
rank n of its input, and prints them after the run.  The workloads' rank
mixes in workloads.py are taken from these counts over tier-1.
"""

from __future__ import annotations

import importlib
from collections import Counter
from functools import wraps

import tracer

# function -> (home module, rank of a call from its arguments and result)
COUNTED = {
    "sample_cell": ("cells", lambda args, out: args[0].J.n),
    "classify": ("cells", lambda args, out: out.J.n),
    "jacobian_rank_check": ("cells", lambda args, out: args[0].J.n),
    "is_totally_positive": ("tnn", lambda args, out: len(args[0].m)),
    "torus_limit": ("strata", lambda args, out: len(args[1]) + 1),
    "positive_retraction": ("strata", lambda args, out: args[2].J.n),
}
COUNTS: Counter = Counter()


def _count(name: str, rank, fn):
    depth = [0]

    @wraps(fn)
    def counted(*args, **kwargs):
        depth[0] += 1
        try:
            out = fn(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            COUNTS[name, rank(args, out)] += 1
        return out

    return counted


def pytest_configure(config):
    """Replace each counted function in every library module that holds it,
    before the test modules import it by name."""
    modules = [importlib.import_module(f"tnncompact.{m}") for m in tracer.LAYERS]
    modules += [importlib.import_module(f"tnncompact.{m}") for m in ("verify", "cli")]
    for name, (home, rank) in COUNTED.items():
        original = getattr(importlib.import_module(f"tnncompact.{home}"), name)
        wrapped = _count(name, rank, original)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("outermost calls by rank")
    for (name, n), count in sorted(COUNTS.items()):
        terminalreporter.write_line(f"{name:22} n={n}  {count}")
