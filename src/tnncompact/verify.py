"""Orchestrated verification suites.

Each suite checks one acceptance property at desk scale with exact
arithmetic and returns a SuiteReport.  A suite counts a case by one
``SuiteReport.check`` call where the case is decided; a failed case keeps
its witness (the seed and what it was run on) as JSON so it can be
replayed.  `run_suite` runs one by name.
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
    _stratum_walk,
    chart_point,
    classify,
    dimension_of,
    enumerate_cells,
    jacobian_rank_check,
    sample_cell,
    top_label,
)
from .exterior import (
    UnsupportedStratumError,
    embedding_data,
    proj_equal,
    strictly_signed,
)
from .laurent import Laurent, lmat_compound, lmat_limit, lmat_mul
from .matgroup import borel_minus, bruhat_cell
from .strata import (
    CompactPoint,
    act,
    base_point,
    fundamental_tuple,
    iJ_of_point,
    membership_Zgt0,
    positive_retraction,
    psibar,
    torus_limit,
)
from .tnn import (
    in_unipotent_cell,
    is_totally_positive,
    mr_evaluate,
    phi_plus,
    rand_nonneg_fraction,
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
    lex_min_reduced_word,
    longest_w,
    positive_subexpression,
)

# every suite derives its seeds from this one
BASE_SEED = 20240


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    wall: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, ok: bool, **witness) -> None:
        """Count one case; when it failed, keep its witness as JSON, each
        CellLabel and CompactPoint in its file form (a passing case builds
        no JSON)."""
        self.cases += 1
        if not ok:
            for k, x in witness.items():
                if isinstance(x, CellLabel):
                    witness[k] = ser.label_to_json(x)
                elif isinstance(x, CompactPoint):
                    witness[k] = ser.point_to_json(x)
            self.failures.append(witness)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.wall:.2f}s"
        )


def _raised(exc: type[Exception], fn: Callable, *args) -> Exception | None:
    """The exception of type exc that fn(*args) raised, or None."""
    try:
        fn(*args)
    except exc as e:
        return e
    return None


class ConfigError(ValueError):
    pass


@dataclass
class VerifyConfig:
    """The scale of a verification run, checked on construction: a suite
    at n outside 2..5, or with no seeds or samples, would pass vacuously."""

    n: int = 3
    seeds: int = 5
    samples: int = 100

    def __post_init__(self):
        if not 2 <= self.n <= 5:
            raise ConfigError("n must be between 2 and 5")
        for name in ("seeds", "samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")


# ---------------------------------------------------------------------------
# 1. cell census

def _census_oracle(n: int) -> list[tuple[CellLabel, int]]:
    """Independent brute-force enumeration: filter raw six-tuples and count
    chart coordinates instead of using the closed dimension formula."""
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
        want = sorted(_census_oracle(n), key=lambda p: p[0].sort_key())
        rep.check(
            got == want, n=n,
            reason="labels, dimensions or order differ from the brute-force oracle",
        )
        euler = sum((-1) ** d for _, d in got)
        # frozen regression constant for n = 2, 3
        rep.check(euler == 1, n=n, reason=f"alternating cell sum changed: {euler}")
    got2 = enumerate_cells(2)
    rep.check(len(got2) == 13, n=2, reason=f"expected 13 cells, got {len(got2)}")
    by_j = {}
    for label, d in got2:
        by_j.setdefault(len(label.J.J), []).append(d)
    rep.check(
        len(by_j.get(0, [])) == 9 and len(by_j.get(1, [])) == 4,
        n=2, reason="expected 9 cells in the closed stratum and 4 in the open one",
    )
    multiset = sorted(d for _, d in got2)
    rep.check(
        multiset == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3],
        n=2, reason=f"dimension multiset changed: {multiset}",
    )
    t1 = time.monotonic()
    enumerate_cells(2)
    rep.check(time.monotonic() - t1 <= 1.0, n=2, reason="n=2 census slower than 1s")
    return rep


# ---------------------------------------------------------------------------
# 2. dimension formula vs geometry

def suite_dimensions(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("dimensions")
    for n in range(2, cfg.n + 1):
        for label, _ in enumerate_cells(n):
            rep.check(
                jacobian_rank_check(label, BASE_SEED),
                n=n, label=label, seed=BASE_SEED,
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
    return CompactPoint(J, u1 @ t, u2)


def suite_positivity_forward(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("positivity-forward")
    for J in _criterion_strata(cfg.n):
        data = embedding_data(J)
        for k in range(cfg.samples):
            seed = BASE_SEED + 7 * k
            rng = random.Random(seed)
            z = _positive_point(J, rng)
            m1, m2 = iJ_of_point(z, data)
            m3, m4 = iJ_of_point(psibar(z), data)
            signed = all(strictly_signed(m) for m in (m1, m2, m3, m4))
            rep.check(signed, J=sorted(J.J), n=J.n, seed=seed, point=z)
            rep.check(
                membership_Zgt0(z),
                J=sorted(J.J), n=J.n, seed=seed, reason="membership test rejected a positive point",
            )
    return rep


def _negative_levi_point(
    J: ParabolicSubset, rng: random.Random, flip_left: bool
) -> CompactPoint:
    """A point of the top cell's chart with the first coordinate of the
    Levi's lower leg (left flip) or upper leg (right flip) negated, hence a
    coset part outside L_{≥0}·Z(L): the first column of the Levi-side
    projective matrix of z (left flip) or of ψ̄(z) (right flip) acquires
    both signs, so the paper's (*) and membership_Zgt0 must reject.
    """
    label = top_label(J)
    coords = [rand_pos_fraction(rng) for _ in range(dimension_of(label))]
    k = len(coords) - (2 if flip_left else 1) * J.longest_element().length
    coords[k] = -coords[k]
    return chart_point(label, coords)


def _lower_cell_points(n: int, count: int, seed: int):
    """count sampled points per stratum J at n, each of a seeded uniform
    label other than top_label(J), that is of a lower cell of Z_{J,≥0}:
    points of the nonnegative part outside Z_{J,>0}.  Yields (label, sample
    seed, point)."""
    rng = random.Random(seed)
    for J, pairs, levi, _ in _stratum_walk(n):
        top = top_label(J)
        for k in range(count):
            label = top
            while label == top:
                (v, w, _), (vp, wp, _) = rng.choice(pairs), rng.choice(pairs)
                label = CellLabel(J, v, w, vp, wp, rng.choice(levi)[0], rng.choice(levi)[0])
            s = seed + k
            yield label, s, sample_cell(label, s)[1]


def suite_positivity_converse(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("positivity-converse")
    J = ParabolicSubset.of(3, [1])
    for k in range(cfg.samples):
        seed = BASE_SEED + 13 * k
        rng = random.Random(seed)
        z = _negative_levi_point(J, rng, flip_left=(k % 2 == 0))
        rep.check(not membership_Zgt0(z), seed=seed, point=z)
    # every lower cell of Z_{J,≥0} makes some entry of the tuple vanish
    for label, seed, z in _lower_cell_points(cfg.n, cfg.samples, BASE_SEED + 17):
        rep.check(
            not membership_Zgt0(z),
            label=label, seed=seed, reason="membership test accepted a lower-cell point",
        )
    return rep


# ---------------------------------------------------------------------------
# 5. Marsh-Rietsch correctness

def suite_marsh_rietsch(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("marsh-rietsch")
    for n in range(2, min(cfg.n, 3) + 1):
        w0 = longest_w(n)
        for w in all_weyl(n):
            for letters in all_reduced_words(w):
                word = ReducedWord(n, letters)
                for v in all_weyl(n):
                    if not bruhat_leq(v, w):
                        continue
                    psub = positive_subexpression(word, v)
                    for s in range(cfg.seeds):
                        rng = random.Random(BASE_SEED + 31 * s)
                        coords = [rand_pos_fraction(rng) for _ in psub.jcirc]
                        flag = mr_evaluate(psub, coords)
                        rep.check(
                            bruhat_cell(flag) == w
                            and bruhat_cell(borel_minus(n).inverse() @ flag) == w0 * v,
                            n=n, word=list(letters), v=list(v.perm), seed=BASE_SEED + 31 * s,
                        )
    return rep


# ---------------------------------------------------------------------------
# 6/7. round-trip classification and emptiness

def suite_roundtrip(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("roundtrip")
    for n in range(2, cfg.n + 1):
        for label, _ in enumerate_cells(n):
            for s in range(cfg.seeds):
                seed = BASE_SEED + 97 * s
                _, z = sample_cell(label, seed)
                got = classify(z)
                rep.check(got == label, n=n, label=label, got=got, seed=seed)
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
        refused = _raised(EmptyCellError, sample_cell, label, BASE_SEED) is not None
        rep.check(refused, label=label, reason="sampler accepted an empty cell")
    rng = random.Random(BASE_SEED)
    labels = [l for l, _ in enumerate_cells(n)]
    for k in range(40):
        label = labels[rng.randrange(len(labels))]
        _, z = sample_cell(label, BASE_SEED + k)
        g1 = sample_G_gt0(n, rng)
        g2 = sample_G_gt0(n, rng)
        # (g1, g2⁻¹) with g1, g2 positive moves any point of Z_{J,≥0} into
        # Z_{J,>0}, the top cell of its stratum
        got = classify(act(g1, g2.inverse(), z))
        rep.check(
            got == top_label(z.J),
            reason="a positively-moved point left the top cell of its stratum",
            label=got, seed=BASE_SEED + k,
        )
    return rep


# ---------------------------------------------------------------------------
# 8. limits and base points

def _curve_limit_images(g1, c, g2) -> list:
    """The leading coefficients of ρ_k(M1·diag(s^{−e})·M2), k = 1..n−1, on
    the torus curve with e_i = c_i + … + c_{n−1}, i.e. α_i = s^{−c_i}, for
    g_i = M_i/d_i: projectively, those of ρ_k(g1·diag(s^{−e})·g2)."""
    n = g1.n
    e = [sum(c[i:]) for i in range(n)]
    scaled = tuple(tuple(Laurent.monomial(-ej, a) for a, ej in zip(row, e)) for row in g1.M)
    x = lmat_mul(scaled, tuple(tuple(Laurent.of(a) for a in row) for row in g2.M))
    return [lmat_limit(lmat_compound(x, k)) for k in range(1, n)]


def suite_limits(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("limits")
    e_exponents = [0, 1, 2]
    for n in range(2, cfg.n + 1):
        for k, c in enumerate(product(e_exponents, repeat=n - 1)):
            seed = BASE_SEED + 11 * k
            rng = random.Random(seed)
            g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
            want = fundamental_tuple(torus_limit(g1, c, g2))
            rep.check(
                all(map(proj_equal, _curve_limit_images(g1, c, g2), want)),
                n=n, c=list(c), seed=seed, reason="torus limit is not the curve's limit",
            )
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
            rep.check(
                [(i, j) for i, j, _ in ones1] == [(0, 0)]
                and all(i == j and x == 1 for i, j, x in ones2)
                and len(ones2) == rank,
                n=n, J=sorted(J.J), reason="base point image is not ([I1],[IL])",
            )
    return rep


# ---------------------------------------------------------------------------
# 9. retraction

def suite_retraction(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("retraction")
    n = cfg.n
    rng = random.Random(BASE_SEED)
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
            # raises StrataError unless the output passes membership_Zgt0;
            # any error is reported with its witness
            e = _raised(Exception, positive_retraction, h1, h2, z)
            rep.check(e is None, point_index=zi, pair_index=pi, reason=str(e))
    # negative control: a lower-cell point is outside Z_{J,>0}, and its
    # retraction passes the membership test and lands in the top cell
    lower = _lower_cell_points(n, 10, BASE_SEED + 19)
    for k, (label, seed, z) in enumerate(lower):
        h1, h2 = pairs[k % len(pairs)]
        before = membership_Zgt0(z)
        try:
            got = classify(positive_retraction(h1, h2, z))
        except Exception as e:
            got = e
        rep.check(
            not before and got == top_label(z.J),
            label=label, seed=seed, pair_index=k % len(pairs),
            reason=f"membership before {before}, retracted to {got}",
        )
    return rep


# ---------------------------------------------------------------------------
# 10. monoid / total positivity cross-checks

def suite_monoid(cfg: VerifyConfig) -> SuiteReport:
    rep = SuiteReport("monoid")
    n = cfg.n
    rng = random.Random(BASE_SEED)
    for k in range(30):
        g = sample_G_gt0(n, rng)
        h = sample_G_gt0(n, rng)
        rep.check(is_totally_positive(g), k=k, reason="sampler output failed the strict minor test")
        rep.check(is_totally_positive(g @ h), k=k, reason="product left the positive monoid")
        rep.check(is_totally_positive(g.T), k=k, reason="transpose left the positive monoid")
    weyl_all = all_weyl(n)
    for k in range(30):
        u = sample_Uplus_gt0(n, rng)
        w = weyl_all[rng.randrange(len(weyl_all))]
        word = lex_min_reduced_word(w)
        u1 = phi_plus(word, [rand_nonneg_fraction(rng) for _ in range(len(word))])
        w0 = longest_w(n)
        rep.check(
            in_unipotent_cell(u @ u1, w0, lower=False),
            k=k, reason="right absorption left the strict unipotent cone",
        )
        rep.check(
            in_unipotent_cell(u1 @ u, w0, lower=False),
            k=k, reason="left absorption left the strict unipotent cone",
        )
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


# The suites that enumerate every label at each n they reach: 109,729 labels
# at n = 4 and 43.4M at n = 5, which no run finishes.
_ENUMERATING = ("census", "dimensions", "roundtrip", "emptiness")


def check_scale(name: str, cfg: VerifyConfig) -> None:
    """Raise ConfigError when the suite cannot finish at cfg's n: the
    suites that enumerate every label run to n = 4."""
    if name in _ENUMERATING and cfg.n > 4:
        raise ConfigError(f"suite {name} enumerates every label and runs to n = 4 only")


def run_suite(name: str, cfg: VerifyConfig) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check_scale(name, cfg)
    t0 = time.monotonic()
    rep = SUITES[name](cfg)
    rep.wall = time.monotonic() - t0
    return rep
