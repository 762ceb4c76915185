"""Orchestrated verification suites.

Each suite checks one acceptance property at desk scale with exact
arithmetic and returns a SuiteReport; failures always embed the seed and a
JSON witness so they can be replayed.  `run_all` drives every suite.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from math import comb, prod
from typing import Any, Callable

from . import serialize as ser
from .cells import (
    CellLabel,
    EmptyCellError,
    classify,
    enumerate_cells,
    jacobian_rank_check,
    sample_cell,
)
from .exterior import (
    UnsupportedStratumError,
    embedding_data,
    strictly_signed,
)
from .matgroup import (
    borel_minus,
    borel_plus,
    bruhat_position,
    FlagPoint,
    _word_element,
    identity_g,
)
from .strata import (
    CompactPoint,
    act,
    base_point,
    iJ_of_point,
    membership_Zgt0,
    positive_retraction,
    psibar,
    torus_limit,
)
from .tnn import (
    MRChart,
    _double_cell_steps,
    is_totally_positive,
    mr_evaluate,
    phi_minus,
    phi_plus,
    rand_pos_fraction,
    sample_G_gt0,
    sample_T_gt0,
    sample_Uminus_gt0,
    sample_Uplus_gt0,
)
from .weyl import (
    ParabolicSubset,
    ReducedWord,
    all_parabolic_subsets,
    all_reduced_words,
    all_weyl,
    bruhat_leq,
    longest_w,
    positive_subexpression,
)

@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    wall: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, **witness) -> None:
        self.failures.append(witness)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.wall:.2f}s"
        )


class ConfigError(ValueError):
    pass


@dataclass
class VerifyConfig:
    """The scale of a verification run, checked on construction: a suite
    at n outside 2..5, or with no seeds or samples, would pass vacuously."""

    n: int = 3
    seeds: int = 5
    samples: int = 100
    base_seed: int = 20240

    def __post_init__(self):
        if not 2 <= self.n <= 5:
            raise ConfigError("n must be between 2 and 5")
        for name in ("seeds", "samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")


def _timed(fn):
    def wrapper(*args, **kwargs) -> SuiteReport:
        t0 = time.monotonic()
        rep = fn(*args, **kwargs)
        rep.wall = time.monotonic() - t0
        return rep

    return wrapper


# ---------------------------------------------------------------------------
# 1. cell census

def _census_oracle(n: int) -> list[tuple[CellLabel, int]]:
    """Independent brute-force enumeration: filter raw six-tuples and count
    chart coordinates instead of using the closed dimension formula."""
    from .weyl import lex_min_reduced_word

    out = []
    ws = all_weyl(n)
    for J in all_parabolic_subsets(n):
        wj = [w for w in ws if J.contains_w(w)]
        for v, w, vp, wp, y, yp in product(ws, ws, ws, ws, wj, wj):
            if not (J.is_min_rep(w) and J.is_min_rep(wp)):
                continue
            if not (J.is_min_rep(v) and J.is_min_rep(vp)):
                continue
            if not (bruhat_leq(v, w) and bruhat_leq(vp, wp)):
                continue
            w0j = J.longest_element()
            dim = (
                len(positive_subexpression(lex_min_reduced_word(w), v).jcirc)
                + len(positive_subexpression(lex_min_reduced_word(wp), vp).jcirc)
                + (y * w0j).length
                + (w0j * yp).length
                + len(J.J)
            )
            out.append((CellLabel(J, v, w, vp, wp, y, yp), dim))
    return out


def suite_census(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("census")
    for n in range(2, cfg.n + 1):
        got = enumerate_cells(n)
        rep.cases += 1
        if got != sorted(_census_oracle(n), key=lambda p: p[0].sort_key()):
            rep.fail(
                n=n,
                reason="labels, dimensions or order differ from the brute-force oracle",
            )
        euler = sum((-1) ** d for _, d in got)
        rep.cases += 1
        if euler != 1:  # frozen regression constant for n = 2, 3
            rep.fail(n=n, reason=f"alternating cell sum changed: {euler}")
    got2 = enumerate_cells(2)
    rep.cases += 3
    if len(got2) != 13:
        rep.fail(n=2, reason=f"expected 13 cells, got {len(got2)}")
    by_j = {}
    for label, d in got2:
        by_j.setdefault(len(label.J.J), []).append(d)
    if len(by_j.get(0, [])) != 9 or len(by_j.get(1, [])) != 4:
        rep.fail(n=2, reason="expected 9 cells in the closed stratum and 4 in the open one")
    multiset = sorted(d for _, d in got2)
    if multiset != [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3]:
        rep.fail(n=2, reason=f"dimension multiset changed: {multiset}")
    rep.cases += 1
    t1 = time.monotonic()
    enumerate_cells(2)
    if time.monotonic() - t1 > 1.0:
        rep.fail(n=2, reason="n=2 census slower than 1s")
    return rep


# ---------------------------------------------------------------------------
# 2. dimension formula vs geometry

def suite_dimensions(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("dimensions")
    for n in range(2, cfg.n + 1):
        for label, _ in enumerate_cells(n):
            rep.cases += 1
            if not jacobian_rank_check(label, cfg.base_seed):
                rep.fail(
                    n=n,
                    label=ser.label_to_json(label),
                    seed=cfg.base_seed,
                    reason="jacobian rank differs from cell dimension",
                )
    return rep


# ---------------------------------------------------------------------------
# 3/4. entrywise positivity criterion

def _criterion_strata(nmax: int) -> list[ParabolicSubset]:
    """Every stratum at n = 2..min(nmax, 3) where the (*) pair exists."""
    out = []
    for n in range(2, min(nmax, 3) + 1):
        for J in all_parabolic_subsets(n):
            try:
                embedding_data(J)
            except UnsupportedStratumError:
                continue
            out.append(J)
    return out


def _positive_point(J: ParabolicSubset, rng: random.Random) -> CompactPoint:
    """(u1·t, u2⁻¹)·z°_J with strictly positive unipotents and torus."""
    n = J.n
    u1 = sample_Uminus_gt0(n, rng)
    u2 = sample_Uplus_gt0(n, rng)
    t = sample_T_gt0(n, rng)
    return act(u1 @ t, u2.inverse(), base_point(J))


def suite_positivity_forward(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("positivity-forward")
    for J in _criterion_strata(cfg.n):
        data = embedding_data(J)
        for k in range(cfg.samples):
            seed = cfg.base_seed + 7 * k
            rng = random.Random(seed)
            z = _positive_point(J, rng)
            m1, m2 = iJ_of_point(z, data)
            m3, m4 = iJ_of_point(psibar(z), data)
            rep.cases += 1
            if not all(strictly_signed(m) for m in (m1, m2, m3, m4)):
                rep.fail(J=sorted(J.J), n=J.n, seed=seed, point=ser.point_to_json(z))
            rep.cases += 1
            if not membership_Zgt0(z):
                rep.fail(
                    J=sorted(J.J),
                    n=J.n,
                    seed=seed,
                    reason="membership test rejected a positive point",
                )
    return rep


def _negative_levi_point(
    J: ParabolicSubset, rng: random.Random, flip_left: bool
) -> CompactPoint:
    """Top-chart point with one negated unipotent Levi coordinate, hence a
    coset part outside L_{≥0}·Z(L).

    The frames mirror sample_cell (g and ψ(g')⁻¹ for lower Marsh-Rietsch
    charts of the longest coset representative), so the first column of the
    Levi-side projective matrix of z (left flip) or of ψ̄(z) (right flip)
    acquires both signs: the paper's (*) and membership_Zgt0 must reject.
    """
    from .weyl import lex_min_reduced_word

    n = J.n
    wmax = J.max_coset_rep()
    word = lex_min_reduced_word(wmax)
    g = phi_minus(word, [rand_pos_fraction(rng) for _ in range(len(word))])
    gp = phi_minus(word, [rand_pos_fraction(rng) for _ in range(len(word))])
    w0j = J.longest_element()
    lm_coords = [rand_pos_fraction(rng) for _ in range(w0j.length)]
    lp_coords = [rand_pos_fraction(rng) for _ in range(w0j.length)]
    if flip_left:
        lm_coords[0] = -lm_coords[0]
    else:
        lp_coords[0] = -lp_coords[0]
    t_coords = [rand_pos_fraction(rng) for _ in range(n - 1)]
    l = _word_element(n, _double_cell_steps(w0j, lm_coords, t_coords, w0j, lp_coords))
    return CompactPoint(J, g, gp.T.inverse(), g @ l @ gp.T)


def suite_positivity_converse(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("positivity-converse")
    J = ParabolicSubset.of(3, [1])
    for k in range(cfg.samples):
        seed = cfg.base_seed + 13 * k
        rng = random.Random(seed)
        z = _negative_levi_point(J, rng, flip_left=(k % 2 == 0))
        rep.cases += 1
        if membership_Zgt0(z):
            rep.fail(seed=seed, point=ser.point_to_json(z))
    return rep


# ---------------------------------------------------------------------------
# 5. Marsh-Rietsch correctness

def suite_marsh_rietsch(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("marsh-rietsch")
    for n in range(2, min(cfg.n, 3) + 1):
        bp, bm = borel_plus(n), borel_minus(n)
        w0 = longest_w(n)
        for w in all_weyl(n):
            for letters in all_reduced_words(w):
                word = ReducedWord(n, letters)
                for v in all_weyl(n):
                    if not bruhat_leq(v, w):
                        continue
                    psub = positive_subexpression(word, v)
                    for s in range(cfg.seeds):
                        rng = random.Random(cfg.base_seed + 31 * s)
                        chart = MRChart(
                            psub,
                            tuple(
                                rand_pos_fraction(rng)
                                for _ in range(len(psub.jcirc))
                            ),
                        )
                        g = mr_evaluate(chart)
                        flag = FlagPoint(g)
                        rep.cases += 1
                        if bruhat_position(bp, flag) != w or bruhat_position(
                            bm, flag
                        ) != w0 * v:
                            rep.fail(
                                n=n,
                                word=list(letters),
                                v=list(v.perm),
                                seed=cfg.base_seed + 31 * s,
                            )
    return rep


# ---------------------------------------------------------------------------
# 6/7. round-trip classification and emptiness

def suite_roundtrip(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("roundtrip")
    for n in range(2, cfg.n + 1):
        for label, _ in enumerate_cells(n):
            rep.cases += cfg.seeds
            for s in range(cfg.seeds):
                seed = cfg.base_seed + 97 * s
                _, z = sample_cell(label, seed)
                got = classify(z)
                if got != label:
                    rep.fail(
                        n=n,
                        label=ser.label_to_json(label),
                        got=ser.label_to_json(got),
                        seed=seed,
                    )
    return rep


def _empty_labels(n: int) -> list[CellLabel]:
    """Every valid label with v or v' outside the minimal coset reps."""
    out = []
    for J in all_parabolic_subsets(n):
        reps = J.min_coset_reps()
        wj = [w for w in all_weyl(n) if J.contains_w(w)]
        pairs = [
            (v, w)
            for w in reps
            for v in all_weyl(n)
            if bruhat_leq(v, w)
        ]
        for v, w in pairs:
            for vp, wp in pairs:
                if J.is_min_rep(v) and J.is_min_rep(vp):
                    continue
                for y in wj:
                    for yp in wj:
                        out.append(CellLabel(J, v, w, vp, wp, y, yp))
    return out


def suite_emptiness(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("emptiness")
    n = cfg.n
    empties = _empty_labels(n)
    for label in empties:
        rep.cases += 1
        try:
            sample_cell(label, cfg.base_seed)
            rep.fail(label=ser.label_to_json(label), reason="sampler accepted an empty cell")
        except EmptyCellError:
            pass
    rng = random.Random(cfg.base_seed)
    labels = [l for l, _ in enumerate_cells(n)]
    for k in range(40):
        label = labels[rng.randrange(len(labels))]
        _, z = sample_cell(label, cfg.base_seed + k)
        g1 = sample_G_gt0(n, rng)
        g2 = sample_G_gt0(n, rng)
        moved = act(g1, g2.inverse(), z)
        got = classify(moved)
        rep.cases += 1
        if not got.is_nonempty():
            rep.fail(
                reason="a positively-constructed point classified into an empty label",
                label=ser.label_to_json(got),
                seed=cfg.base_seed + k,
            )
    return rep


# ---------------------------------------------------------------------------
# 8. limits and base points

def suite_limits(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("limits")
    e_exponents = [0, 1, 2]
    for n in range(2, cfg.n + 1):
        one = identity_g(n)
        for c in product(e_exponents, repeat=n - 1):
            J = ParabolicSubset.of(n, (i + 1 for i, x in enumerate(c) if x == 0))
            z = torus_limit(one, c, one)
            rep.cases += 1
            if z != base_point(J):
                rep.fail(n=n, c=list(c), reason="bare torus limit misses the base point")
        for J in all_parabolic_subsets(n):
            try:
                data = embedding_data(J)
            except UnsupportedStratumError:
                continue
            m1, m2 = iJ_of_point(base_point(J), data)
            # [m1] is the rank-one projector onto e_{1..k1}, the first colex
            # basis vector; m2 is a 0/1 diagonal whose rank is the number of
            # k2-subsets meeting each J-block in as many elements as {1..k2}
            ones1, ones2 = (
                [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x]
                for m in (m1, m2)
            )
            rank = prod(comb(len(blk), sum(i < data.k2 for i in blk)) for blk in J.blocks0())
            rep.cases += 1
            if not (
                [(i, j) for i, j, _ in ones1] == [(0, 0)]
                and all(i == j and x == 1 for i, j, x in ones2)
                and len(ones2) == rank
            ):
                rep.fail(n=n, J=sorted(J.J), reason="base point image is not ([I1],[IL])")
    return rep


# ---------------------------------------------------------------------------
# 9. retraction

def suite_retraction(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("retraction")
    n = cfg.n
    rng = random.Random(cfg.base_seed)
    pairs = [
        (sample_G_gt0(n, rng), sample_G_gt0(n, rng)) for _ in range(10)
    ]
    points = []
    for k in range(50):
        csel = [rng.choice([0, 1, 2]) for _ in range(n - 1)]
        if all(x == 0 for x in csel):
            csel[rng.randrange(n - 1)] = 1
        g1 = sample_G_gt0(n, rng)
        g2 = sample_G_gt0(n, rng)
        points.append(torus_limit(g1, csel, g2))
    for zi, z in enumerate(points):
        for pi, (h1, h2) in enumerate(pairs):
            rep.cases += 1
            try:  # raises StrataError unless the output passes membership_Zgt0
                positive_retraction(h1, h2, z)
            except Exception as e:  # report any failure with its witness
                rep.fail(point_index=zi, pair_index=pi, reason=str(e))
    return rep


# ---------------------------------------------------------------------------
# 10. monoid / total positivity cross-checks

def suite_monoid(cfg: VerifyConfig) -> SuiteReport:
    from .tnn import in_unipotent_cell, rand_nonneg_fraction
    from .weyl import lex_min_reduced_word

    rep = SuiteReport("monoid")
    n = cfg.n
    rng = random.Random(cfg.base_seed)
    for k in range(30):
        g = sample_G_gt0(n, rng)
        h = sample_G_gt0(n, rng)
        rep.cases += 3
        if not is_totally_positive(g):
            rep.fail(k=k, reason="sampler output failed the strict minor test")
        if not is_totally_positive(g @ h):
            rep.fail(k=k, reason="product left the positive monoid")
        if not is_totally_positive(g.T):
            rep.fail(k=k, reason="transpose left the positive monoid")
    weyl_all = all_weyl(n)
    for k in range(30):
        u = sample_Uplus_gt0(n, rng)
        w = weyl_all[rng.randrange(len(weyl_all))]
        word = lex_min_reduced_word(w)
        u1 = phi_plus(word, [rand_nonneg_fraction(rng) for _ in range(len(word))])
        rep.cases += 2
        if not in_unipotent_cell(u @ u1, longest_w(n), lower=False):
            rep.fail(k=k, reason="right absorption left the strict unipotent cone")
        if not in_unipotent_cell(u1 @ u, longest_w(n), lower=False):
            rep.fail(k=k, reason="left absorption left the strict unipotent cone")
    return rep


# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[VerifyConfig], SuiteReport]] = {
    "census": suite_census,
    "dimensions": suite_dimensions,
    "positivity-forward": suite_positivity_forward,
    "positivity-converse": suite_positivity_converse,
    "marsh-rietsch": suite_marsh_rietsch,
    "roundtrip": suite_roundtrip,
    "emptiness": suite_emptiness,
    "limits": suite_limits,
    "retraction": suite_retraction,
    "monoid": suite_monoid,
}


def run_suite(name: str, cfg: VerifyConfig) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return _timed(SUITES[name])(cfg)


def run_all(cfg: VerifyConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in SUITES]
