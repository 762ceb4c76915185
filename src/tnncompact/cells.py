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

from . import linalg as la
from .dual import DMatrix, Dual, dmat_const, dmat_identity
from .exterior import compounds, stratum_indicator
from .matgroup import (
    FlagPoint,
    ParabolicPoint,
    associated_borel,
    borel_minus,
    borel_plus,
    bruhat_position,
    sdot,
)
from .strata import CompactPoint, _trusted_point
from .tnn import (
    DoubleCellPoint,
    MRChart,
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


class ClassificationError(CellError):
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
        return (
            bruhat_leq(self.v, self.w)
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
    from .tnn import mr_chart

    chart1 = mr_chart(label.v, label.w, rng)
    chart2 = mr_chart(label.vp, label.wp, rng)
    levi = _levi_point(label, rng)
    g = mr_evaluate(chart1)
    gp = mr_evaluate(chart2)
    from .tnn import double_cell_evaluate

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
    of nonnegative data, positive retractions); raises ClassificationError
    when the positions fall outside the expected cosets.
    """
    J = z.J
    n = z.n
    w0 = longest_w(n)
    P = ParabolicPoint(J, z.a, opposite=False)
    Q = ParabolicPoint(J, z.b, opposite=True)
    psi_q = ParabolicPoint(J, z.b.T.inverse(), opposite=False)
    v, w = _flag_cell(P)
    vp, wp = _flag_cell(psi_q)
    for name, x in (("w", w), ("w'", wp)):
        if not J.is_min_rep(x):
            raise ClassificationError(f"{name}-position {x} is not a minimal coset rep")
    if not (bruhat_leq(v, w) and bruhat_leq(vp, wp)):
        raise ClassificationError("flag positions violate the Bruhat constraint")
    y = _gamma_position(z, P, Q, borel_plus(n)) * w0
    yp = _gamma_position(z, P, Q, borel_minus(n)) * w0
    for name, x in (("y", y), ("y'", yp)):
        if not J.contains_w(x):
            raise ClassificationError(f"{name}-position {x} is outside the Levi group")
    return CellLabel(J, v, w, vp, wp, y, yp)


def _gamma_position(
    z: CompactPoint, P: ParabolicPoint, Q: ParabolicPoint, B: FlagPoint
) -> WeylElement:
    bp = associated_borel(P, B)
    bq = associated_borel(Q, B)
    return bruhat_position(bp, FlagPoint(z.g @ bq.g))


# ---------------------------------------------------------------------------
# exact Jacobian rank of the chart map

def _dual_mr(
    label_v: WeylElement, label_w: WeylElement, values, offset: int, nvars: int
) -> DMatrix:
    """Marsh-Rietsch product with dual-number coordinates at given offset."""
    n = label_w.n
    word = lex_min_reduced_word(label_w)
    psub = positive_subexpression(word, label_v)
    g = dmat_identity(n, nvars)
    idx = 0
    for j, i in enumerate(word.letters, start=1):
        if j in psub.jcirc:
            a = Dual.var(values[idx], offset + idx, nvars)
            f = dmat_identity(n, nvars)
            f = _set_entry(f, i, i - 1, a)
            g = la.matmul(g, f)
            idx += 1
        else:
            g = la.matmul(g, dmat_const(sdot(n, i).m, nvars))
    return g


def _set_entry(m: DMatrix, r: int, c: int, val: Dual) -> DMatrix:
    rows = [list(row) for row in m]
    rows[r][c] = val
    return tuple(tuple(row) for row in rows)


def _dual_phi(
    w: WeylElement, values, offset: int, nvars: int, lower: bool
) -> DMatrix:
    n = w.n
    word = lex_min_reduced_word(w)
    g = dmat_identity(n, nvars)
    for idx, i in enumerate(word.letters):
        a = Dual.var(values[idx], offset + idx, nvars)
        f = dmat_identity(n, nvars)
        if lower:
            f = _set_entry(f, i, i - 1, a)
        else:
            f = _set_entry(f, i - 1, i, a)
        g = la.matmul(g, f)
    return g


def _dual_levi_torus(J: ParabolicSubset, values, offset: int, nvars: int) -> DMatrix:
    """Product of coroot one-parameter subgroups over j ∈ J with dual coords."""
    n = J.n
    g = dmat_identity(n, nvars)
    idx = 0
    for j in sorted(J.J):
        a = Dual.var(values[idx], offset + idx, nvars)
        f = dmat_identity(n, nvars)
        rows = [list(row) for row in f]
        rows[j - 1][j - 1] = a
        rows[j][j] = Dual.const(1, nvars) / a
        f = tuple(tuple(row) for row in rows)
        g = la.matmul(g, f)
        idx += 1
    return g


def jacobian_rank_check(label: CellLabel, seed: int, retries: int = 3) -> bool:
    """True iff the exact Jacobian of the chart map, evaluated at a random
    positive rational chart point, has rank equal to the cell dimension.

    Coordinates: the free Marsh-Rietsch steps of both charts, the two
    unipotent legs of the Levi double cell, and one coroot coordinate per
    j ∈ J.  The chart lands in every fundamental representation at once.
    """
    d = dimension_of(label)
    for attempt in range(retries):
        rng = random.Random(seed * 1009 + attempt)
        if _jacobian_rank(label, rng) == d:
            return True
    return False


def _jacobian_rank(label: CellLabel, rng: random.Random) -> int:
    J = label.J
    n = J.n
    w0j = J.longest_element()
    wm = label.y * w0j
    wpl = w0j * label.yp
    word_w = lex_min_reduced_word(label.w)
    word_wp = lex_min_reduced_word(label.wp)
    n1 = len(positive_subexpression(word_w, label.v).jcirc)
    n2 = len(positive_subexpression(word_wp, label.vp).jcirc)
    n3 = wm.length
    n4 = len(J.J)
    n5 = wpl.length
    nvars = n1 + n2 + n3 + n4 + n5
    assert nvars == dimension_of(label)
    vals = [rand_pos_fraction(rng) for _ in range(nvars)]
    o = 0
    g = _dual_mr(label.v, label.w, vals[o : o + n1], o, nvars)
    o += n1
    gp = _dual_mr(label.vp, label.wp, vals[o : o + n2], o, nvars)
    o += n2
    lm = _dual_phi(wm, vals[o : o + n3], o, nvars, lower=True)
    o += n3
    lt = _dual_levi_torus(J, vals[o : o + n4], o, nvars)
    o += n4
    lp = _dual_phi(wpl, vals[o : o + n5], o, nvars, lower=False)
    o += n5
    g1 = la.matmul(la.matmul(la.matmul(g, lm), lt), lp)
    g2 = la.transpose(gp)
    rows: list[tuple[Fraction, ...]] = []
    for k, (c1, c2) in enumerate(zip(compounds(g1, n - 1), compounds(g2, n - 1)), 1):
        dk = dmat_const(stratum_indicator(J, k), nvars)
        nk = la.matmul(la.matmul(c1, dk), c2)
        pivot = next(
            (x for row in nk for x in row if x.val != 0), None
        )
        if pivot is None:
            return -1
        for row in nk:
            for x in row:
                chart = x / pivot
                rows.append(chart.grad)
    return la.rank(tuple(rows))
