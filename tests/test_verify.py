"""The books of the verify suites: every counted case can fail, a passing
case writes no witness, and a failure's witness is JSON in one form.

Each suite reads its library calls from ``verify``'s namespace; patching
them there to answer wrongly must fail every case the suite counts.
"""

import pytest

from tnncompact import serialize as ser
from tnncompact import verify
from tnncompact.strata import StrataError
from tnncompact.weyl import longest_w

CFG = verify.VerifyConfig(n=2, seeds=2, samples=3)

# the true answers, read before any test patches them
_classify, _sample_cell = verify.classify, verify.sample_cell
_enumerate_cells, _membership = verify.enumerate_cells, verify.membership_Zgt0
_bruhat_cell = verify.bruhat_cell


def _next_label(z):
    """The label after classify(z) in census order: always a wrong one."""
    labels = [label for label, _ in _enumerate_cells(z.J.n)]
    return labels[(labels.index(_classify(z)) + 1) % len(labels)]


def _refuse(*args):
    raise StrataError("forced failure")


def _zero_images(z, data):
    return [[0]], [[0]]


# suite -> (config, {name in verify: wrong answer})
WRONG = {
    # drops the first cell: wrong labels, count, strata split, multiset and sum
    "census": (CFG, {"enumerate_cells": lambda n: _enumerate_cells(n)[1:]}),
    "dimensions": (CFG, {"jacobian_rank_check": lambda label, seed: False}),
    "positivity-forward": (
        CFG, {"iJ_of_point": _zero_images, "membership_Zgt0": lambda z: not _membership(z)}
    ),
    "positivity-converse": (CFG, {"membership_Zgt0": lambda z: not _membership(z)}),
    "marsh-rietsch": (
        CFG, {"bruhat_cell": lambda g: _bruhat_cell(g) * longest_w(g.n)}
    ),
    "roundtrip": (CFG, {"classify": _next_label}),
    # every label at n = 2 is nonempty, so the refusal cases start at n = 3
    "emptiness": (
        verify.VerifyConfig(n=3, seeds=2, samples=3),
        {
            "sample_cell": lambda label, seed: _sample_cell(verify.top_label(label.J), seed),
            "classify": lambda z: verify._empty_labels(z.J.n)[0],
        },
    ),
    "limits": (CFG, {"proj_equal": lambda a, b: False, "iJ_of_point": _zero_images}),
    "retraction": (CFG, {"positive_retraction": _refuse}),
    "monoid": (
        CFG,
        {"is_totally_positive": lambda g: False, "in_unipotent_cell": lambda u, w, lower: False},
    ),
}


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_every_counted_case_can_fail(name, monkeypatch):
    """With its library calls answering wrongly, a suite fails every case
    it counts; census keeps its wall-clock case, which no wrong answer
    slows down."""
    cfg, fakes = WRONG[name]
    for attr, fake in fakes.items():
        monkeypatch.setattr(verify, attr, fake)
    rep = verify.run_suite(name, cfg)
    assert rep.cases > 0
    assert len(rep.failures) == rep.cases - (name == "census")


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_a_suite_that_enumerates_every_label_refuses_n5(name, monkeypatch):
    """census, dimensions, roundtrip and emptiness enumerate every label
    (43.4M at n = 5): run_suite raises ConfigError at n = 5 before the
    suite starts, and lets the other suites run."""
    started = []
    monkeypatch.setitem(verify.SUITES, name, lambda cfg: started.append(cfg) or verify.SuiteReport(name))
    cfg = verify.VerifyConfig(n=5, seeds=1, samples=1)
    if name in ("census", "dimensions", "roundtrip", "emptiness"):
        with pytest.raises(verify.ConfigError):
            verify.run_suite(name, cfg)
        assert not started
    else:
        verify.run_suite(name, cfg)
        assert started == [cfg]
    verify.run_suite(name, verify.VerifyConfig(n=4, seeds=1, samples=1))


def _no_writer(*args):
    raise AssertionError("a passing case wrote a witness")


@pytest.mark.parametrize(
    "name", ["positivity-forward", "positivity-converse", "dimensions", "roundtrip"]
)
def test_a_passing_case_writes_no_witness(name, monkeypatch):
    """Points and labels are written as JSON only for a failed case."""
    monkeypatch.setattr(ser, "point_to_json", _no_writer)
    monkeypatch.setattr(ser, "label_to_json", _no_writer)
    rep = verify.run_suite(name, CFG)
    assert rep.ok and rep.cases > 0


def test_check_counts_every_case_and_writes_only_failures():
    label, _ = verify.enumerate_cells(2)[0]
    _, z = verify.sample_cell(label, 1)
    rep = verify.SuiteReport("s")
    rep.check(True, label=label, point=z)
    rep.check(False, seed=3, label=label, point=z, reason="r")
    assert rep.cases == 2
    assert rep.failures == [
        {"seed": 3, "label": ser.label_to_json(label), "point": ser.point_to_json(z), "reason": "r"}
    ]
    assert list(rep.failures[0]) == ["seed", "label", "point", "reason"]
