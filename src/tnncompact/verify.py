"""Orchestrated verification suites.

Each suite checks one acceptance property at desk scale with exact
arithmetic.  A suite yields cases ``(check, witness)``: a zero-argument
check, and the witness to keep as JSON if it fails (the seed and what it
was run on), so the case can be replayed.  `run_suite` alone runs, counts
and catches them.  A case passes only when its check returns True.  A
check's value that is not a bool joins the witness as ``got`` (so
``lambda: (got := f(x)) == want or got`` reports what it got); a check that
raises fails with ``error`` in its witness, and the suite goes on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Any, Callable, Iterator

from . import serialize as ser
from .cells import (
    CellLabel,
    EmptyCellError,
    _chart,
    _chart_words,
    _full_rank,
    _sample_coords,
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
    EmbeddingData,
    UnsupportedStratumError,
    compounds,
    embedding_data,
    proj_key,
    strictly_signed,
)
from .laurent import Laurent, lmat_limit, lmat_mul
from .matgroup import GroupMatrix, borel_minus, bruhat_cell
from .strata import (
    CompactPoint,
    StrataError,
    act,
    base_point,
    iJ_of_point,
    membership_Zgt0,
    point_key,
    positive_retraction,
    psibar,
    torus_limit,
)
from .tnn import (
    ParamError,
    double_cell_evaluate,
    in_Uplus_gt0,
    is_totally_nonneg,
    is_totally_positive,
    mr_evaluate,
    phi_plus,
    rand_nonneg_fraction,
    rand_pos_fraction,
    sample_G_gt0,
    sample_Uplus_gt0,
)
from .weyl import (
    ParabolicSubset,
    ReducedWord,
    all_parabolic_subsets,
    all_reduced_words,
    all_weyl,
    bruhat_leq,
    identity_w,
    lex_min_reduced_word,
    longest_w,
    positive_subexpression,
)

# every suite derives its seeds from this one
BASE_SEED = 20240

# a zero-argument check, and the witness to keep if it fails
Case = tuple[Callable[[], object], dict]


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
        """Count one case (`run_suite` calls this once per case); when it
        failed, keep its witness as JSON, each CellLabel and CompactPoint in
        its file form (a passing case builds no JSON)."""
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


@dataclass(frozen=True)
class VerifyConfig:
    """The scale of a verification run, three ints checked on construction
    and frozen after it: a suite at n outside 2..5, or with no seeds or
    samples, passes vacuously."""

    n: int = 3
    seeds: int = 5
    samples: int = 100

    def __post_init__(self):
        if any(type(getattr(self, name)) is not int for name in ("n", "seeds", "samples")):
            raise ConfigError("n, seeds and samples must be ints")
        if not 2 <= self.n <= 5:
            raise ConfigError("n must be between 2 and 5")
        if min(self.seeds, self.samples) < 1:
            raise ConfigError("seeds and samples must be at least 1")


# ---------------------------------------------------------------------------
# 1. cell census

def _brute_labels(n: int):
    """The valid labels at n, by brute force over W and independent of the
    census it checks, one stratum at a time: yields J, the Bruhat pairs
    (v, w) of W × W with w in W^J, and W_J.  The labels of J are the pairs
    taken twice times W_J × W_J."""
    ws = all_weyl(n)
    for J in all_parabolic_subsets(n):
        pairs = [(v, w) for w in ws if J.is_min_rep(w) for v in ws if bruhat_leq(v, w)]
        yield J, pairs, [y for y in ws if J.contains_w(y)]


def _census_oracle(n: int) -> list[tuple[CellLabel, int]]:
    """The brute-force labels with v and v' in W^J, each dimension counted
    from chart coordinates instead of the closed formula: the free steps of
    each Marsh-Rietsch chart, counted once per pair, the two Levi legs and
    one coroot per j ∈ J."""
    out = []
    for J, pairs, wj in _brute_labels(n):
        w0j = J.longest_element()
        flags = [
            (v, w, len(positive_subexpression(lex_min_reduced_word(w), v).jcirc))
            for v, w in pairs
            if J.is_min_rep(v)
        ]
        levis = [(y, yp, (y * w0j).length + (w0j * yp).length) for y, yp in product(wj, wj)]
        for (v, w, d), (vp, wp, dp), (y, yp, dl) in product(flags, flags, levis):
            out.append((CellLabel(J, v, w, vp, wp, y, yp), d + dp + dl + len(J.J)))
    return out


def suite_census(cfg: VerifyConfig) -> Iterator[Case]:
    census = {}
    for n in range(2, cfg.n + 1):
        got = census[n] = enumerate_cells(n)
        want = sorted(_census_oracle(n), key=lambda p: p[0].sort_key())
        yield lambda: got == want, dict(
            n=n, reason="labels, dimensions or order differ from the brute-force oracle"
        )
        euler = sum((-1) ** d for _, d in got)
        # frozen regression constant for n = 2, 3
        yield lambda: euler == 1, dict(n=n, reason=f"alternating cell sum changed: {euler}")
    got2 = census[2]
    yield lambda: len(got2) == 13, dict(n=2, reason=f"expected 13 cells, got {len(got2)}")
    by_j = {}
    for label, d in got2:
        by_j.setdefault(len(label.J.J), []).append(d)
    yield lambda: len(by_j.get(0, [])) == 9 and len(by_j.get(1, [])) == 4, dict(
        n=2, reason="expected 9 cells in the closed stratum and 4 in the open one"
    )
    multiset = sorted(d for _, d in got2)
    yield lambda: multiset == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3], dict(
        n=2, reason=f"dimension multiset changed: {multiset}"
    )
    t1 = time.monotonic()
    enumerate_cells(2)
    elapsed = time.monotonic() - t1
    yield lambda: elapsed <= 1.0, dict(n=2, reason="n=2 census slower than 1s")


# ---------------------------------------------------------------------------
# 2. dimension formula vs geometry

_CONTROLS = 1000  # labels per n that the per-label controls draw from


def _control_labels(labels: list) -> list:
    """The labels a per-label control runs on: all of them when there are
    at most ``_CONTROLS``, else a seeded sample of that many."""
    return random.Random(BASE_SEED).sample(labels, min(len(labels), _CONTROLS))


def suite_dimensions(cfg: VerifyConfig) -> Iterator[Case]:
    """Every label's chart has rank d; controls: with two free steps of word
    1 merged, it has not (every label at n ≤ 3, a seeded sample beyond)."""
    for n in range(2, cfg.n + 1):
        labels = [label for label, _ in enumerate_cells(n)]
        for label in labels:
            yield lambda: jacobian_rank_check(label, BASE_SEED), dict(
                n=n, label=label, seed=BASE_SEED, reason="jacobian rank differs from cell dimension"
            )
        for label in _control_labels(labels):
            words = _merged_chart_words(label, BASE_SEED)
            if words is not None:
                yield lambda: not _full_rank(label.J, *words, dimension_of(label)), dict(
                    n=n, label=label, seed=BASE_SEED,
                    reason="a chart with two merged steps has full rank",
                )


def _merged_chart_words(label: CellLabel, seed: int):
    """The chart words of label at the coordinates of sample_cell(label,
    seed), with word 1's second free step moved next to its first and
    given the first's generator, or None when word 1 has fewer than two
    free steps.  The chart then runs through z_i(a)·z_i(b) = z_i(a + b), so
    two of its d tangent vectors coincide and its rank is below d."""
    word1, word2 = _chart_words(_chart(label, _sample_coords(label, seed)))
    free = [k for k, (kind, _, _) in enumerate(word1) if kind in ("x", "y")]
    if len(free) < 2:
        return None
    first, second = free[:2]
    step = word1.pop(second)
    word1.insert(first + 1, word1[first][:2] + step[2:])
    return word1, word2


# ---------------------------------------------------------------------------
# 3/4. entrywise positivity criterion

def _criterion_data(n: int) -> list[EmbeddingData]:
    """The (*) pair of every stratum of PGL_n that has one."""
    return [
        embedding_data(J)
        for J in all_parabolic_subsets(n)
        if _raised(UnsupportedStratumError, embedding_data, J) is None
    ]


def _positive_point(J: ParabolicSubset, rng: random.Random) -> CompactPoint:
    """(u1·t, u2⁻¹)·z°_J with strictly positive unipotents and torus; u1·t
    is the double Bruhat chart of (w₀, e), and the draws run u1, u2, t."""
    n, w0 = J.n, longest_w(J.n)
    am = [rand_pos_fraction(rng) for _ in range(w0.length)]
    u2 = sample_Uplus_gt0(n, rng)
    tor = [rand_pos_fraction(rng) for _ in range(n - 1)]
    return CompactPoint(J, double_cell_evaluate(w0, identity_w(n), am, tor, ()), u2)


# the strata with a (*) pair: those with I − J and J each of one simple
# root at most, or J = I
_STAR_STRATA = {2: [(), (1,)], 3: [(1,), (1, 2), (2,)]}


def suite_positivity_forward(cfg: VerifyConfig) -> Iterator[Case]:
    for n in range(2, min(cfg.n, 3) + 1):
        strata = sorted(tuple(sorted(d.J.J)) for d in _criterion_data(n))
        yield lambda: strata == _STAR_STRATA[n], dict(
            n=n, strata=strata, reason="the strata with a (*) pair are not the expected ones"
        )
    for data in (d for n in range(2, min(cfg.n, 3) + 1) for d in _criterion_data(n)):
        J = data.J
        for k in range(cfg.samples):
            seed = BASE_SEED + 7 * k
            z = _positive_point(J, random.Random(seed))
            yield lambda: all(
                strictly_signed(m) for m in (*iJ_of_point(z, data), *iJ_of_point(psibar(z), data))
            ), dict(J=sorted(J.J), n=J.n, seed=seed, point=z)
            yield lambda: membership_Zgt0(z), dict(
                J=sorted(J.J), n=J.n, seed=seed, reason="membership test rejected a positive point"
            )


def _negative_levi_point(J: ParabolicSubset, seed: int, flip_left: bool) -> CompactPoint:
    """The top cell's sample at seed with the first coordinate of the
    Levi's lower leg (left flip) or upper leg (right flip) negated, hence a
    coset part outside L_{≥0}·Z(L): the first column of the Levi-side
    projective matrix of z (left flip) or of ψ̄(z) (right flip) acquires
    both signs, so the paper's (*) and membership_Zgt0 must reject.
    """
    label = top_label(J)
    coords = list(_sample_coords(label, seed))
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


def suite_positivity_converse(cfg: VerifyConfig) -> Iterator[Case]:
    J = ParabolicSubset.of(3, [1])
    for k in range(cfg.samples):
        seed = BASE_SEED + 13 * k
        z = _negative_levi_point(J, seed, flip_left=(k % 2 == 0))
        yield lambda: not membership_Zgt0(z), dict(seed=seed, point=z)
    # every lower cell of Z_{J,≥0} makes some entry of the tuple vanish
    for label, seed, z in _lower_cell_points(cfg.n, cfg.samples, BASE_SEED + 17):
        yield lambda: not membership_Zgt0(z), dict(
            label=label, seed=seed, reason="membership test accepted a lower-cell point"
        )


# ---------------------------------------------------------------------------
# 5. Marsh-Rietsch correctness

def suite_marsh_rietsch(cfg: VerifyConfig) -> Iterator[Case]:
    for n in range(2, min(cfg.n, 3) + 1):
        w0 = longest_w(n)
        for w in all_weyl(n):
            for letters in all_reduced_words(w):
                word = ReducedWord(n, letters)
                for v in all_weyl(n):
                    if not bruhat_leq(v, w):
                        continue
                    psub = positive_subexpression(word, v)
                    if psub.jcirc:
                        # negative control: a zero coordinate is outside the chart
                        zero = [0] + [1] * (len(psub.jcirc) - 1)
                        yield (
                            lambda: _raised(ParamError, mr_evaluate, psub, zero) is not None,
                            dict(
                                n=n, word=list(letters), v=list(v.perm),
                                reason="chart accepted a zero coordinate",
                            ),
                        )
                    for s in range(cfg.seeds):
                        rng = random.Random(BASE_SEED + 31 * s)
                        coords = [rand_pos_fraction(rng) for _ in psub.jcirc]
                        yield lambda: (
                            bruhat_cell(flag := mr_evaluate(psub, coords)) == w
                            and bruhat_cell(borel_minus(n).inverse() @ flag) == w0 * v
                        ), dict(n=n, word=list(letters), v=list(v.perm), seed=BASE_SEED + 31 * s)


# ---------------------------------------------------------------------------
# 6/7. round-trip classification and emptiness

def _levi_centre(J: ParabolicSubset) -> GroupMatrix:
    """A diagonal t of det 1, constant on each J-block, so central in L_J
    and fixing z°_J: the first block scaled by 2^{|B2|}, the second by
    2^{−|B1|}, and all of t negated at even n."""
    b1, b2, *_ = [*J.blocks0(), []]
    scale = {i: Fraction(2 ** len(b2)) for i in b1} | {i: Fraction(1, 2 ** len(b1)) for i in b2}
    sign = -1 if J.n % 2 == 0 else 1
    return GroupMatrix(tuple(
        tuple(sign * scale.get(i, 1) if i == j else 0 for j in range(J.n)) for i in range(J.n)
    ))


def suite_roundtrip(cfg: VerifyConfig) -> Iterator[Case]:
    """classify reads every label back off its samples; controls on each
    label of positive dimension (every label at n ≤ 3, a seeded sample
    beyond): with two seeds or more, its samples at s = 0 and s = 1 are
    unequal points, and its sample z at s = 0 equals (J, z.g1·t, z.g2) for
    t = _levi_centre(J), except at J = I for odd n, where t = 1."""
    seeds = [BASE_SEED + 97 * s for s in range(cfg.seeds)]
    for n in range(2, cfg.n + 1):
        cells = enumerate_cells(n)
        controls = set(_control_labels([label for label, d in cells if d > 0]))
        for label, _ in cells:
            points = [sample_cell(label, seed)[1] for seed in seeds]
            for seed, z in zip(seeds, points):
                yield lambda: (got := classify(z)) == label or got, dict(
                    n=n, label=label, seed=seed
                )
            if len(points) >= 2 and label in controls:
                yield lambda: points[0] != points[1], dict(
                    n=n, label=label, seeds=seeds[:2],
                    reason="the samples at two seeds are one point",
                )
            if label in controls and (n % 2 == 0 or len(label.J.J) < n - 1):
                z, t = points[0], _levi_centre(label.J)
                yield lambda: z == CompactPoint(z.J, z.g1 @ t, z.g2), dict(
                    n=n, label=label, seed=seeds[0],
                    reason="a point moved by the centre of its Levi factor is another point",
                )


def _empty_labels(n: int) -> list[CellLabel]:
    """Every valid label with v or v' outside the minimal coset reps."""
    return [
        CellLabel(J, v, w, vp, wp, y, yp)
        for J, pairs, wj in _brute_labels(n)
        for (v, w), (vp, wp) in product(pairs, pairs)
        if not (J.is_min_rep(v) and J.is_min_rep(vp))
        for y, yp in product(wj, wj)
    ]


def suite_emptiness(cfg: VerifyConfig) -> Iterator[Case]:
    n = cfg.n
    for label in _empty_labels(n):
        yield lambda: _raised(EmptyCellError, sample_cell, label, BASE_SEED) is not None, dict(
            label=label, reason="sampler accepted an empty cell"
        )
    rng = random.Random(BASE_SEED)
    labels = [l for l, _ in enumerate_cells(n)]
    for k in range(40):
        label = labels[rng.randrange(len(labels))]
        _, z = sample_cell(label, BASE_SEED + k)
        g1 = sample_G_gt0(n, rng)
        g2 = sample_G_gt0(n, rng)
        # (g1, g2⁻¹) with g1, g2 positive moves any point of Z_{J,≥0} into
        # Z_{J,>0}, the top cell of its stratum
        yield lambda: (got := classify(act(g1, g2.inverse(), z))) == top_label(z.J) or got, dict(
            reason="a positively-moved point left the top cell of its stratum",
            label=label, seed=BASE_SEED + k,
        )


# ---------------------------------------------------------------------------
# 8. limits and base points

def _curve_limit_images(g1, c, g2) -> list:
    """The leading coefficients of ρ_k(M1·diag(s^{−e})·M2), k = 1..n−1, on
    the torus curve with e_i = c_i + … + c_{n−1}, i.e. α_i = s^{−c_i}, for
    M_i a positive multiple of g_i: projectively, those of
    ρ_k(g1·diag(s^{−e})·g2)."""
    n = g1.n
    e = [sum(c[i:]) for i in range(n)]
    scaled = tuple(tuple(Laurent.monomial(-ej, a) for a, ej in zip(row, e)) for row in g1.M)
    x = lmat_mul(scaled, tuple(tuple(Laurent.of(a) for a in row) for row in g2.M))
    return [lmat_limit(level) for level in compounds(x, n - 1)]


def _is_base_image(data: EmbeddingData) -> bool:
    """Whether iJ of the base point z°_J is ([I1], [IL]): [m1] is the
    rank-one projector onto e_{1..k1}, the first colex basis vector, and m2
    is a 0/1 diagonal whose rank is the number of k2-subsets meeting each
    J-block in as many elements as {1..k2}."""
    ones1, ones2 = (
        [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x]
        for m in iJ_of_point(base_point(data.J), data)
    )
    rank = prod(comb(len(blk), sum(i < data.k2 for i in blk)) for blk in data.J.blocks0())
    return (
        [(i, j) for i, j, _ in ones1] == [(0, 0)]
        and all(i == j and x == 1 for i, j, x in ones2)
        and len(ones2) == rank
    )


def suite_limits(cfg: VerifyConfig) -> Iterator[Case]:
    e_exponents = [0, 1, 2]
    for n in range(2, cfg.n + 1):
        for k, c in enumerate(product(e_exponents, repeat=n - 1)):
            seed = BASE_SEED + 11 * k
            rng = random.Random(seed)
            g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
            yield lambda: point_key(torus_limit(g1, c, g2))[1] == tuple(
                map(proj_key, _curve_limit_images(g1, c, g2))
            ), dict(n=n, c=list(c), seed=seed, reason="torus limit is not the curve's limit")
        for data in _criterion_data(n):
            yield lambda: _is_base_image(data), dict(
                n=n, J=sorted(data.J.J), reason="base point image is not ([I1],[IL])"
            )


# ---------------------------------------------------------------------------
# 9. retraction

_RAISE_SEARCH = 1000  # negative-Levi points searched for one that fails to retract


def suite_retraction(cfg: VerifyConfig) -> Iterator[Case]:
    n = cfg.n
    rng = random.Random(BASE_SEED)
    pairs = [(sample_G_gt0(n, rng), sample_G_gt0(n, rng)) for _ in range(10)]
    for zi in range(50):
        csel = [rng.choice([0, 1, 2]) for _ in range(n - 1)]
        if all(x == 0 for x in csel):
            csel[rng.randrange(n - 1)] = 1
        z = torus_limit(sample_G_gt0(n, rng), csel, sample_G_gt0(n, rng))
        for pi, (h1, h2) in enumerate(pairs):
            yield lambda: membership_Zgt0(positive_retraction(h1, h2, z)), dict(
                point_index=zi, pair_index=pi,
                reason="a torus limit did not retract into the positive part",
            )
    # controls: a negative-Levi point of J = {1} is outside the closure, so
    # its retraction raises StrataError or lands in the positive part, and
    # some such point raises
    J = ParabolicSubset.of(n, [1])

    def control(k):
        """The retraction arguments of control k: pair k mod 10 and point k."""
        z = _negative_levi_point(J, BASE_SEED + 23 * k, flip_left=(k % 2 == 0))
        return (*pairs[k % len(pairs)], z)

    def refused(args) -> bool:
        return _raised(StrataError, positive_retraction, *args) is not None

    for k in range(cfg.samples):
        args = control(k)
        yield lambda: refused(args) or membership_Zgt0(positive_retraction(*args)), dict(
            seed=BASE_SEED + 23 * k, pair_index=k % len(pairs),
            reason="a retraction returned a point outside the positive part",
        )
    yield lambda: any(refused(control(k)) for k in range(_RAISE_SEARCH)), dict(
        reason=f"none of {_RAISE_SEARCH} negative-Levi points made the retraction raise"
    )
    # a lower-cell point is outside Z_{J,>0}, and its retraction passes the
    # membership test and lands in the top cell
    for k, (label, seed, z) in enumerate(_lower_cell_points(n, 10, BASE_SEED + 19)):
        h1, h2 = pairs[k % len(pairs)]
        yield lambda: not membership_Zgt0(z) and (
            (got := classify(positive_retraction(h1, h2, z))) == top_label(z.J) or got
        ), dict(
            label=label, seed=seed, pair_index=k % len(pairs),
            reason="a lower-cell point passed the membership test or retracted off the top cell",
        )


# ---------------------------------------------------------------------------
# 10. monoid / total positivity cross-checks

def suite_monoid(cfg: VerifyConfig) -> Iterator[Case]:
    n = cfg.n
    rng = random.Random(BASE_SEED)
    for k in range(30):
        g = sample_G_gt0(n, rng)
        h = sample_G_gt0(n, rng)
        yield lambda: is_totally_positive(g), dict(
            k=k, reason="sampler output failed the strict minor test"
        )
        yield lambda: is_totally_positive(g @ h), dict(
            k=k, reason="product left the positive monoid"
        )
        yield lambda: is_totally_positive(g.T), dict(
            k=k, reason="transpose left the positive monoid"
        )
    weyl_all = all_weyl(n)
    for k in range(30):
        u = sample_Uplus_gt0(n, rng)
        w = weyl_all[rng.randrange(len(weyl_all))]
        word = lex_min_reduced_word(w)
        u1 = phi_plus(word, [rand_nonneg_fraction(rng) for _ in range(len(word))])
        yield lambda: in_Uplus_gt0(u @ u1), dict(
            k=k, reason="right absorption left the strict unipotent cone"
        )
        yield lambda: in_Uplus_gt0(u1 @ u), dict(
            k=k, reason="left absorption left the strict unipotent cone"
        )
    # negative controls: u⁻¹ is upper unipotent in B⁻ẇ₀B⁻ with a negative
    # (1, 2) entry, and uᵀ·x-word(w₀) with one zero coordinate is TNN, not TP
    w0_word = lex_min_reduced_word(longest_w(n))
    for k in range(30):
        u = sample_Uplus_gt0(n, rng)
        b = [rand_pos_fraction(rng) for _ in range(len(w0_word))]
        b[k % len(b)] = 0
        g = u.T @ phi_plus(w0_word, b)
        yield lambda: not in_Uplus_gt0(u.inverse()), dict(
            k=k, reason="an inverse unipotent passed as positive"
        )
        yield lambda: is_totally_nonneg(g) and not is_totally_positive(g), dict(
            k=k, reason="a word with a zero coordinate passed as totally positive"
        )


# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[VerifyConfig], Iterator[Case]]] = {
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
    """Run the named suite at cfg and count the cases it yields.  A case
    passes only when its check returns True; a check that raises is one
    failed case, with ``error`` in its witness, and the suite goes on.  When
    the suite's own code raises, that is one more failed case, and the suite
    ends with the cases it counted."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check_scale(name, cfg)
    rep = SuiteReport(name)
    t0 = time.monotonic()
    cases = SUITES[name](cfg)
    while True:
        try:
            case = next(cases, None)
        except Exception as e:
            rep.check(False, reason="suite raised", error=f"{type(e).__name__}: {e}")
            break
        if case is None:
            break
        check, witness = case
        # run the check before the suite resumes: a check closes over the
        # suite's loop variables, so run later it would see later values
        try:
            got = check()
            extra = {} if isinstance(got, bool) else {"got": got}
        except Exception as e:
            got, extra = False, {"error": f"{type(e).__name__}: {e}"}
        rep.check(got is True, **witness, **extra)
    rep.wall = time.monotonic() - t0
    return rep
