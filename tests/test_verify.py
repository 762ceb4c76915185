"""The books of the verify suites: every counted case can fail, a passing
case writes no witness, and a failure's witness is JSON in one form.

Each suite reads its library calls from ``verify``'s namespace; patching
them there to answer wrongly must fail every case the suite counts.
"""

import pytest
from oracles import generator_y

from tnncompact import serialize as ser
from tnncompact import verify
from tnncompact.exterior import UnsupportedStratumError
from tnncompact.strata import base_point
from tnncompact.weyl import WeylError, longest_w

CFG = verify.VerifyConfig(n=2, seeds=2, samples=3)

# the true answers, read before any test patches them
_classify, _sample_cell = verify.classify, verify.sample_cell
_enumerate_cells, _membership = verify.enumerate_cells, verify.membership_Zgt0
_bruhat_cell, _embedding_data = verify.bruhat_cell, verify.embedding_data
_tp, _in_Uplus, _mr_evaluate = verify.is_totally_positive, verify.in_Uplus_gt0, verify.mr_evaluate


def _next_label(z):
    """The label after classify(z) in census order: always a wrong one."""
    labels = [label for label, _ in _enumerate_cells(z.J.n)]
    return labels[(labels.index(_classify(z)) + 1) % len(labels)]


def _retract_to_base(h1, h2, z):
    """A retraction that never refuses and returns the base point of z's
    stratum, which lies outside the positive part and its top cell."""
    return base_point(z.J)


def _zero_images(z, data):
    return [[0]], [[0]]


def _embedding_data_of_I_only(J):
    """An embedding_data that refuses every stratum but J = I."""
    if len(J.J) < J.n - 1:
        raise UnsupportedStratumError("refused")
    return _embedding_data(J)


# suite -> (config, {name in verify: wrong answer})
WRONG = {
    # drops the first cell: wrong labels, count, strata split, multiset and sum
    "census": (CFG, {"enumerate_cells": lambda n: _enumerate_cells(n)[1:]}),
    # every chart is rank-deficient, and a merged-step chart has full rank
    "dimensions": (
        CFG,
        {"jacobian_rank_check": lambda label, seed: False, "_full_rank": lambda J, w1, w2, d: True},
    ),
    # one stratum with a (*) pair is lost
    "positivity-forward": (
        CFG,
        {
            "embedding_data": _embedding_data_of_I_only,
            "iJ_of_point": _zero_images,
            "membership_Zgt0": lambda z: not _membership(z),
        },
    ),
    "positivity-converse": (CFG, {"membership_Zgt0": lambda z: not _membership(z)}),
    # an mr_evaluate that takes a zero coordinate as 1 accepts zeros
    "marsh-rietsch": (
        CFG,
        {
            "bruhat_cell": lambda g: _bruhat_cell(g) * longest_w(g.n),
            "mr_evaluate": lambda psub, coords: _mr_evaluate(psub, [c or 1 for c in coords]),
        },
    ),
    # every seed gives the seed-0 sample, so two seeds give one point; and
    # y_1(1), in place of the Levi centre, moves every base point
    "roundtrip": (
        CFG,
        {
            "classify": _next_label,
            "sample_cell": lambda label, seed: _sample_cell(label, verify.BASE_SEED),
            "_levi_centre": lambda J: generator_y(J.n, 1, 1),
        },
    ),
    # every label at n = 2 is nonempty, so the refusal cases start at n = 3
    "emptiness": (
        verify.VerifyConfig(n=3, seeds=2, samples=3),
        {
            "sample_cell": lambda label, seed: _sample_cell(verify.top_label(label.J), seed),
            "classify": lambda z: verify._empty_labels(z.J.n)[0],
        },
    ),
    "limits": (CFG, {"point_key": lambda z: (z.J, ()), "iJ_of_point": _zero_images}),
    "retraction": (CFG, {"positive_retraction": _retract_to_base}),
    "monoid": (
        CFG,
        {"is_totally_positive": lambda g: not _tp(g), "in_Uplus_gt0": lambda u: not _in_Uplus(u)},
    ),
}


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_every_counted_case_can_fail(name, monkeypatch):
    """With its library calls answering wrongly, a suite fails every case
    it counts, each by its own check and not by raising (no failure carries
    ``error``); census keeps its wall-clock case, which no wrong answer
    slows down."""
    cfg, fakes = WRONG[name]
    for attr, fake in fakes.items():
        monkeypatch.setattr(verify, attr, fake)
    rep = verify.run_suite(name, cfg)
    assert rep.cases > 0
    assert len(rep.failures) == rep.cases - (name == "census")
    assert not any("error" in f for f in rep.failures)


@pytest.mark.parametrize(
    "fields",
    [{"seeds": 2.5}, {"samples": True}, {"n": 3.0}, {"seeds": "2"}, {"n": 6}, {"samples": 0}],
)
def test_verify_config_refuses_a_scale_that_is_not_an_int_in_range(fields):
    """A float or a bool would run a suite that fails on a TypeError or
    counts True as one sample; each is refused where the config is built."""
    with pytest.raises(verify.ConfigError):
        verify.VerifyConfig(**fields)


@pytest.mark.parametrize("name", ["n", "seeds", "samples"])
def test_verify_config_is_frozen_after_its_checks(name):
    """An assignment after construction would get past the checks."""
    cfg = verify.VerifyConfig()
    with pytest.raises(AttributeError):
        setattr(cfg, name, 2.5)
    assert cfg == verify.VerifyConfig(n=3, seeds=5, samples=100)


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_a_suite_that_enumerates_every_label_refuses_n5(name, monkeypatch):
    """census, dimensions, roundtrip and emptiness enumerate every label
    (43.4M at n = 5): run_suite raises ConfigError at n = 5 before the
    suite starts, and lets the other suites run."""
    started = []
    monkeypatch.setitem(verify.SUITES, name, lambda cfg: started.append(cfg) or iter(()))
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


def test_a_check_that_raises_is_one_failed_case(monkeypatch):
    """A rank check that raises at one label fails that case alone, with
    the error in its witness; the suite's other 13 cases still count."""
    first, _ = _enumerate_cells(2)[0]
    rank_check = verify.jacobian_rank_check

    def _raise_at_first(label, seed):
        if label == first:
            raise WeylError("forced")
        return rank_check(label, seed)

    monkeypatch.setattr(verify, "jacobian_rank_check", _raise_at_first)
    rep = verify.run_suite("dimensions", CFG)
    assert rep.cases == 14
    assert rep.failures == [
        {
            "n": 2,
            "label": ser.label_to_json(first),
            "seed": verify.BASE_SEED,
            "reason": "jacobian rank differs from cell dimension",
            "error": "WeylError: forced",
        }
    ]


def test_a_suite_that_raises_keeps_the_cases_it_counted(monkeypatch):
    """When the suite's own code raises partway (here enumerate_cells at
    n = 3), the cases counted at n = 2 stay, and the raise is one more
    failed case."""

    def _enumerate_to_2(n):
        if n > 2:
            raise WeylError("forced")
        return _enumerate_cells(n)

    monkeypatch.setattr(verify, "enumerate_cells", _enumerate_to_2)
    rep = verify.run_suite("census", verify.VerifyConfig(n=3, seeds=1, samples=1))
    assert rep.cases == 3
    assert rep.failures == [{"reason": "suite raised", "error": "WeylError: forced"}]


def test_a_failing_roundtrip_witness_carries_the_label_it_got(monkeypatch):
    """A check's value that is not a bool joins the witness as ``got``, in
    file form: roundtrip's failures name the label classify returned."""
    monkeypatch.setattr(verify, "classify", _next_label)
    rep = verify.run_suite("roundtrip", CFG)
    failed = [f for f in rep.failures if "got" in f]
    assert len(failed) == 26
    for f in failed:
        _, z = _sample_cell(ser.label_from_json(f["label"]), f["seed"])
        assert f["got"] == ser.label_to_json(_next_label(z)) != f["label"]
