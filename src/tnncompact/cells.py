"""The cell atlas of the nonnegative part of the compactification.

Cells are indexed by labels (J, v, w, v', w', y, y') with v ≤ w and v' ≤ w'
in W^J and y, y' in W_J; a label is nonempty exactly when v and v' are also
minimal coset representatives.  The sampler realizes the explicit
parametrization (Marsh-Rietsch charts for the two flags, a totally positive
double Bruhat chart of the Levi for the coset part), the classifier reads
the label back off relative positions, and the dimension formula

    d = l(w) + l(w') + 2·l(w^J_0) + |J| - l(v) - l(v') - l(y) - l(y')

is verified geometrically by exact Jacobian ranks of the chart map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import linalg as la
from .dual import DMatrix, Dual
from .matgroup import (
    FlagPoint,
    ParabolicPoint,
    _evaluate_word,
    associated_borel,
    borel_minus,
    borel_plus,
    bruhat_position,
)
from .strata import CompactPoint, _limit_images, _trusted_point
from .tnn import (
    DoubleCellPoint,
    MRChart,
    _double_cell_steps,
    _mr_steps,
    double_cell_evaluate,
    mr_chart,
    mr_evaluate,
    rand_pos_fraction,
)
from .weyl import (
    ParabolicSubset,
    WeylElement,
    all_parabolic_subsets,
    bruhat_leq,
    identity_w,
    lex_min_reduced_word,
    longest_w,
    positive_subexpression,
)


class CellError(Exception):
    pass


class EmptyCellError(CellError):
    pass


@dataclass(frozen=True)
class CellLabel:
    J: ParabolicSubset
    v: WeylElement
    w: WeylElement
    vp: WeylElement
    wp: WeylElement
    y: WeylElement
    yp: WeylElement

    def __post_init__(self):
        if not self.is_valid():
            raise CellError(f"invalid cell label {self}")

    def is_valid(self) -> bool:
        J = self.J
        perms = (self.v, self.w, self.vp, self.wp, self.y, self.yp)
        return (
            all(p.n == J.n for p in perms)
            and bruhat_leq(self.v, self.w)
            and bruhat_leq(self.vp, self.wp)
            and J.is_min_rep(self.w)
            and J.is_min_rep(self.wp)
            and J.contains_w(self.y)
            and J.contains_w(self.yp)
        )

    def is_nonempty(self) -> bool:
        return self.J.is_min_rep(self.v) and self.J.is_min_rep(self.vp)

    def sort_key(self):
        return (
            sorted(self.J.J),
            self.v.perm,
            self.w.perm,
            self.vp.perm,
            self.wp.perm,
            self.y.perm,
            self.yp.perm,
        )

    def __repr__(self) -> str:
        return (
            f"Cell(J={sorted(self.J.J)}, v={self.v.perm}, w={self.w.perm}, "
            f"v'={self.vp.perm}, w'={self.wp.perm}, y={self.y.perm}, y'={self.yp.perm})"
        )


def dimension_of(label: CellLabel) -> int:
    """l(w)+l(w')+2·l(w^J_0)+|J| - l(v)-l(v')-l(y)-l(y')."""
    if not label.is_nonempty():
        raise EmptyCellError(f"dimension of empty cell {label}")
    J = label.J
    d = (
        label.w.length
        + label.wp.length
        + 2 * J.longest_element().length
        + len(J.J)
        - label.v.length
        - label.vp.length
        - label.y.length
        - label.yp.length
    )
    assert d >= 0
    return d


def top_label(J: ParabolicSubset) -> CellLabel:
    """The label of the open cell Z_{J,>0}."""
    wmax = J.max_coset_rep()
    e = identity_w(J.n)
    return CellLabel(J, e, wmax, e, wmax, e, e)


def enumerate_cells(
    n: int, J: ParabolicSubset | None = None
) -> list[tuple[CellLabel, int]]:
    """All nonempty labels (with dimensions) for one stratum or the whole
    compactification, in ``CellLabel.sort_key`` order.

    The order comes from the loops themselves: strata by sorted J, then
    Bruhat pairs (v, w) of W^J and Levi elements y of W_J by permutation.
    v ≤ w is decided once per pair, and a dimension is the stratum's base
    2·l(w^J_0) + |J| plus the gaps l(w) − l(v) and l(w') − l(v') minus
    l(y) and l(y').  Labels are built from these checked parts without
    revalidation."""
    if not 2 <= n <= 5:
        raise CellError("implementation bound: 2 <= n <= 5")
    if J is not None and J.n != n:
        raise CellError(f"stratum {J} is not a stratum of PGL_{n}")
    subsets = [J] if J is not None else all_parabolic_subsets(n)
    out = []
    for Js in sorted(subsets, key=lambda K: sorted(K.J)):
        reps = sorted(Js.min_coset_reps(), key=lambda x: x.perm)
        pairs = [
            (v, w, w.length - v.length)
            for v in reps
            for w in reps
            if bruhat_leq(v, w)
        ]
        levi = [(y, y.length) for y in _weyl_subgroup(Js)]
        base = 2 * Js.longest_element().length + len(Js.J)
        for v, w, gap in pairs:
            for vp, wp, gap2 in pairs:
                d = base + gap + gap2
                for y, ly in levi:
                    for yp, lyp in levi:
                        out.append(
                            (_trusted_label(Js, v, w, vp, wp, y, yp), d - ly - lyp)
                        )
    return out


def _weyl_subgroup(J: ParabolicSubset) -> list[WeylElement]:
    """W_J, sorted by permutation."""
    from .weyl import all_weyl

    return sorted((w for w in all_weyl(J.n) if J.contains_w(w)), key=lambda w: w.perm)


def _trusted_label(J, v, w, vp, wp, y, yp) -> CellLabel:
    """A CellLabel whose parts are already known to be valid: skips the
    ``__post_init__`` check, which stays on every public construction."""
    label = object.__new__(CellLabel)
    label.__dict__.update(J=J, v=v, w=w, vp=vp, wp=wp, y=y, yp=yp)
    return label


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class CellSample:
    label: CellLabel
    chart1: MRChart
    chart2: MRChart
    levi: DoubleCellPoint


def _levi_point(label: CellLabel, rng: random.Random) -> DoubleCellPoint:
    J = label.J
    w0j = J.longest_element()
    wm = label.y * w0j
    wp = w0j * label.yp
    tor = tuple(
        rand_pos_fraction(rng) if (i in J.J) else Fraction(1)
        for i in range(1, J.n)
    )
    return DoubleCellPoint(
        wm,
        wp,
        tuple(rand_pos_fraction(rng) for _ in range(wm.length)),
        tor,
        tuple(rand_pos_fraction(rng) for _ in range(wp.length)),
    )


def sample_cell(label: CellLabel, seed: int) -> tuple[CellSample, CompactPoint]:
    """Draw a point of the labeled cell: (^g P_J, ^{ψ(g')⁻¹} Q_J, g·H·l·U·ψ(g'))
    with g, g' Marsh-Rietsch positive and l in the Levi double cell indexed
    by (y·w^J_0, w^J_0·y')."""
    if not label.is_nonempty():
        raise EmptyCellError(f"refusing to sample the empty cell {label}")
    rng = random.Random(seed)
    chart1 = mr_chart(label.v, label.w, rng)
    chart2 = mr_chart(label.vp, label.wp, rng)
    levi = _levi_point(label, rng)
    g = mr_evaluate(chart1)
    gp = mr_evaluate(chart2)
    l = double_cell_evaluate(levi)
    # g⁻¹·(g·l·ψ(g'))·ψ(g')⁻¹ = l is block diagonal, so it is its own Levi part
    point = _trusted_point(label.J, g, gp.T.inverse(), g @ l @ gp.T, l)
    return (CellSample(label, chart1, chart2, levi), point)


# ---------------------------------------------------------------------------
# classification

def _flag_cell(P: ParabolicPoint) -> tuple[WeylElement, WeylElement]:
    n = P.n
    bp = associated_borel(P, borel_plus(n))
    w = bruhat_position(borel_plus(n), bp)
    v = longest_w(n) * bruhat_position(borel_minus(n), bp)
    return (v, w)


def classify(z: CompactPoint) -> CellLabel:
    """Read the cell label off relative positions.

    Valid on points of nonempty positive cells (sampler output, torus limits
    of nonnegative data, positive retractions); the CellLabel constructor
    raises CellError when the positions fall outside the expected cosets.
    """
    J = z.J
    n = z.n
    w0 = longest_w(n)
    P = ParabolicPoint(J, z.a, opposite=False)
    Q = ParabolicPoint(J, z.b, opposite=True)
    psi_q = ParabolicPoint(J, z.b.T.inverse(), opposite=False)
    v, w = _flag_cell(P)
    vp, wp = _flag_cell(psi_q)
    y = _gamma_position(z, P, Q, borel_plus(n)) * w0
    yp = _gamma_position(z, P, Q, borel_minus(n)) * w0
    return CellLabel(J, v, w, vp, wp, y, yp)


def _gamma_position(
    z: CompactPoint, P: ParabolicPoint, Q: ParabolicPoint, B: FlagPoint
) -> WeylElement:
    bp = associated_borel(P, B)
    bq = associated_borel(Q, B)
    return bruhat_position(bp, FlagPoint(z.g @ bq.g))


# ---------------------------------------------------------------------------
# exact Jacobian rank of the chart map

_JACOBIAN_TRIES = 3  # chart points tried before a rank deficit is reported


def jacobian_rank_check(label: CellLabel, seed: int) -> bool:
    """True iff the exact Jacobian of the chart map, evaluated at a random
    positive rational chart point, has rank equal to the cell dimension.

    Coordinates: the free Marsh-Rietsch steps of both charts, the two
    unipotent legs of the Levi double cell, and one coroot coordinate per
    j ∈ J.  The chart lands in every fundamental representation at once.
    """
    d = dimension_of(label)
    for attempt in range(_JACOBIAN_TRIES):
        rng = random.Random(seed * 1009 + attempt)
        if _jacobian_rank(label, rng) == d:
            return True
    return False


def _dual_chart(label: CellLabel, values) -> tuple[DMatrix, DMatrix]:
    """The sampler's chart (g·l, ψ(g')) with one Dual variable per value, in
    the order: the free steps of both flag charts, the Levi's lower leg, its
    coroots j ∈ J, its upper leg."""
    J = label.J
    w0j = J.longest_element()
    wm, wpl = label.y * w0j, w0j * label.yp
    p1, p2 = (
        positive_subexpression(lex_min_reduced_word(w), v)
        for v, w in ((label.v, label.w), (label.vp, label.wp))
    )
    x = iter([Dual.var(a, k, len(values)) for k, a in enumerate(values)])
    one = Dual.const(1, len(values))
    counts = (len(p1.jcirc), len(p2.jcirc), wm.length)
    c1, c2, aminus = [list(islice(x, k)) for k in counts]
    tor = [next(x) if i in J.J else one for i in range(1, J.n)]
    aplus = list(x)
    assert len(aplus) == wpl.length, "coordinate count differs from the dimension"
    steps = _mr_steps(p1, c1) + _double_cell_steps(wm, aminus, tor, wpl, aplus)
    return (
        _evaluate_word(J.n, steps, one),
        la.transpose(_evaluate_word(J.n, _mr_steps(p2, c2), one)),
    )


def _jacobian_rank(label: CellLabel, rng: random.Random) -> int:
    vals = [rand_pos_fraction(rng) for _ in range(dimension_of(label))]
    rows: list[tuple[Fraction, ...]] = []
    for nk in _limit_images(label.J, *_dual_chart(label, vals)):
        pivot = next((x for row in nk for x in row if x.val != 0), None)
        if pivot is None:
            return -1
        rows += [(x / pivot).grad for row in nk for x in row]
    return la.rank(tuple(rows))
