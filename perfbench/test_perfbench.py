"""Tests of the benchmark itself: input generation, answer checks, failure
accounting and tracing.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from collections import Counter
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tnncompact import cells, matgroup, tnn  # noqa: E402
from tnncompact.weyl import ParabolicSubset, WeylElement  # noqa: E402


def _n3_label(seed: int) -> cells.CellLabel:
    return workloads.LabelSampler(3).draw(random.Random(seed))


def test_wrong_and_raising_ops_land_in_error_rate():
    label = _n3_label(1)
    other = next(
        l for l in (_n3_label(s) for s in range(2, 50)) if l != label
    )
    J = ParabolicSubset.of(3, [1])
    e = WeylElement((1, 2, 3))
    # v = s1 is not a minimal coset representative, so sample_cell raises
    empty = cells.CellLabel(J, WeylElement((2, 1, 3)), WeylElement((2, 3, 1)), e, e, e, e)
    ops = [
        workloads.Op("good", workloads.roundtrip, (label, 7), workloads.expect(label)),
        workloads.Op("wrong", workloads.roundtrip, (label, 7), workloads.expect(other)),
        workloads.Op("raises", workloads.roundtrip, (empty, 7), workloads.expect(empty)),
    ]
    log = io.StringIO()
    res = worker.run_job(ops, log=log)
    assert (res.attempted, res.failed) == (3, 2)
    assert res.failed / res.attempted == 2 / 3
    assert "op wrong failed: wrong answer" in log.getvalue()
    assert "EmptyCellError" in log.getvalue()
    assert len(res.latencies) == 3 and res.wall > 0


def test_check_is_not_timed():
    def slow_check(result):
        time.sleep(0.3)
        return result is True

    res = worker.run_job([workloads.Op("quick", lambda: True, (), slow_check)])
    assert (res.attempted, res.failed) == (1, 0)
    assert res.raw_wall < 0.05


def test_jobs_follow_the_rank_mixes():
    assert workloads.interleave({3: 4, 4: 1}) == [3, 3, 4, 3, 3]
    for cls, mix in ((workloads.Atlas, workloads.ATLAS_MIX),
                     (workloads.Certify, workloads.CERTIFY_MIX),
                     (workloads.Census, workloads.JACOBIAN_MIX)):
        kinds = Counter(op.kind for op in cls().job(random.Random(1)) if op.sampled)
        assert sorted(kinds.values()) == sorted(mix.values()), cls


def test_certify_results_match_certificates():
    ops = {op.kind: op for op in workloads.Certify().job(random.Random(1))}
    lengths = {k: len(op.check.args[0]) for k, op in ops.items()}
    assert lengths == {"certify.n3": 3, "certify.n4": 2, "certify.n5": 1}
    res = worker.run_job([ops["certify.n3"], ops["certify.n4"]])
    assert res.failed == 0


def test_label_sampler_counts_match_census():
    assert workloads.LabelSampler(3).total == len(cells.enumerate_cells(3)) == 685
    assert workloads.LabelSampler(4).total == workloads.CENSUS_N4["count"]
    rng = random.Random(5)
    sampler = workloads.LabelSampler(4)
    assert all(sampler.draw(rng).is_nonempty() for _ in range(200))


def test_dimension_distribution_matches_census():
    sampler = workloads.LabelSampler(3)
    counts = Counter(d for _, d in cells.enumerate_cells(3))
    assert sampler.dim_values == sorted(counts)
    assert sampler.dim_cumulative == list(accumulate(counts[d] for d in sorted(counts)))
    labels = sampler.stratified(random.Random(2), 20)
    dims = sorted(cells.dimension_of(l) for l in labels)
    # 20 evenly spaced quantiles of the census dimensions
    census = sorted(d for _, d in cells.enumerate_cells(3))
    assert dims == [census[(2 * i + 1) * len(census) // 40] for i in range(20)]


def test_positive_matrix_is_totally_positive():
    rng = random.Random(11)
    for n in (3, 4, 5):
        for _ in range(3):
            assert tnn.is_totally_positive(workloads.positive_matrix(n, rng))


def test_jobs_depend_only_on_the_seed():
    for cls in (workloads.Atlas, workloads.Certify, workloads.Census):
        wl = cls()
        a = wl.job(random.Random(workloads.job_seed(3, 1)))
        b = wl.job(random.Random(workloads.job_seed(3, 1)))
        c = wl.job(random.Random(workloads.job_seed(4, 1)))
        assert [op.args for op in a] == [op.args for op in b]
        assert [op.args for op in a] != [op.args for op in c]


def test_every_job_op_passes_on_a_sample():
    for cls in (workloads.Atlas, workloads.Certify):
        ops = cls().job(random.Random(0))[:6]
        res = worker.run_job(ops)
        assert res.failed == 0, cls


def test_nearest_rank_p95_leaves_ten_samples_beyond():
    xs = list(range(worker.MIN_SAMPLED_OPS))
    p95 = worker.quantile(xs, 0.95)
    assert sum(1 for x in xs if x > p95) == 10


def test_tracer_self_time_and_restore():
    original = matgroup.associated_borel
    t = tracer.Tracer()
    t.install()
    try:
        assert cells.associated_borel is not original  # imported by name
        assert matgroup.associated_borel is cells.associated_borel
        _, z = cells.sample_cell(_n3_label(2), 3)
        cells.classify(z)
    finally:
        t.uninstall()
    assert cells.associated_borel is original
    assert matgroup.associated_borel is original
    roots = sum(total for (_, parent), (_, total, _) in t.spans.items() if parent is None)
    selfs = sum(s for (_, _, s) in t.spans.values())
    assert selfs == roots
    funcs = t.by_function()
    assert funcs["cells.classify"][0] == 1
    assert funcs["matgroup.associated_borel"][0] == 6
    # called through private helpers, which are not spans
    assert ("matgroup.associated_borel", "cells.classify") in t.spans
    assert funcs["linalg.rank"][0] > 0
    assert sum(t.by_layer().values()) == selfs


def test_benchmark_json_names_are_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = {name for name, *_ in tracer.Tracer()._targets()}
    for m in spec["per_layer"]:
        base, _, field = m["name"].rpartition(".")
        if base == "trace":
            assert field in ("wall_s", "untraced_wall_s", "overhead_s")
        elif base in tracer.LAYERS:
            assert field == "self_s"
        else:
            assert base in traced and field in ("calls", "self_s"), m["name"]
    res = worker.run_job(workloads.Atlas().job(random.Random(0))[:3])
    produced = set(worker.plain_metrics([res])) | {"setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} <= produced
