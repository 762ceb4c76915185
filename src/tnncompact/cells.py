"""The cell atlas of the nonnegative part of the compactification.

Cells are indexed by labels (J, v, w, v', w', y, y') with v ≤ w and v' ≤ w'
in W^J and y, y' in W_J; a label is nonempty exactly when v and v' are also
minimal coset representatives.  Each cell is the image of one chart, the
explicit parametrization (Marsh-Rietsch charts for the two flags, a totally
positive double Bruhat chart of the Levi for the coset part), realized as
the action pair of a stratum point by ``chart_point``.  Its coordinates are
laid out in one order: the free steps of flag chart 1, those of flag chart
2, the coroots j ∈ J, the Levi's lower leg, then its upper leg.  A sample
at a seed is one chart point, drawn from Random(seed) in that order; the
Jacobian rank check differentiates the chart at that point (``tnncompact
sample --label-file <label> --seed <seed>`` replays it), the classifier
reads the label back off relative positions in the base-point frame, and
the dimension formula

    d = l(w) + l(w') + 2·l(w^J_0) + |J| - l(v) - l(v') - l(y) - l(y')

is verified geometrically by the exact rank of the chart map: the rank of
its tangent vectors in gl_n ⊕ gl_n modulo the Lie algebra of the
stabilizer of z°_J, with no dual numbers and no compounds.  A rank of d
mod p = 2^61 − 1 certifies it, since the chart has d tangent vectors and
reduction mod p can only lower a rank; only a miss runs it over Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice

from . import linalg as la
from .linalg import frac
from .matgroup import (
    GroupMatrix,
    _word_element,
    associated_borel,
    borel_minus,
    bruhat_cell,
    identity_g,
)
from .strata import CompactPoint
from .tnn import _double_cell_steps, _mr_steps, rand_pos_fraction
from .weyl import (
    ParabolicSubset,
    WeylElement,
    all_parabolic_subsets,
    all_weyl,
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

    The labels and the order come from ``_stratum_walk``; a dimension is the
    stratum's base plus the gaps l(w) − l(v) and l(w') − l(v') minus l(y)
    and l(y').  Labels are built from these checked parts without
    revalidation."""
    out = []
    for Js, pairs, levi, base in _stratum_walk(n, J):
        for v, w, gap in pairs:
            for vp, wp, gap2 in pairs:
                d = base + gap + gap2
                for y, ly in levi:
                    for yp, lyp in levi:
                        out.append(
                            (_trusted_label(Js, v, w, vp, wp, y, yp), d - ly - lyp)
                        )
    return out


def _stratum_walk(n: int, J: ParabolicSubset | None = None):
    """Per stratum J, sorted by J: (J, pairs, levi, base) with the Bruhat
    pairs (v, w, l(w) − l(v)) of W^J, the Levi elements (y, l(y)) of W_J,
    both sorted by permutation, and the base 2·l(w^J_0) + |J|.

    Every nonempty label of the stratum is (J, v, w, v', w', y, y') for
    pairs (v, w), (v', w') and Levi elements y, y', and looping over them in
    that nesting gives ``CellLabel.sort_key`` order.  v ≤ w is decided once
    per pair.  Raises CellError when n is outside 2..5 or J is not a
    stratum of PGL_n."""
    if not 2 <= n <= 5:
        raise CellError("implementation bound: 2 <= n <= 5")
    if J is not None and J.n != n:
        raise CellError(f"stratum {J} is not a stratum of PGL_{n}")
    subsets = [J] if J is not None else all_parabolic_subsets(n)
    for Js in sorted(subsets, key=lambda K: sorted(K.J)):
        reps = sorted(Js.min_coset_reps(), key=lambda x: x.perm)
        pairs = [
            (v, w, w.length - v.length)
            for v in reps
            for w in reps
            if bruhat_leq(v, w)
        ]
        levi = [(y, y.length) for y in _weyl_subgroup(Js)]
        yield Js, pairs, levi, 2 * Js.longest_element().length + len(Js.J)


def _weyl_subgroup(J: ParabolicSubset) -> list[WeylElement]:
    """W_J, sorted by permutation."""
    return sorted((w for w in all_weyl(J.n) if J.contains_w(w)), key=lambda w: w.perm)


def _trusted_label(J, v, w, vp, wp, y, yp) -> CellLabel:
    """A CellLabel whose parts are already known to be valid: skips the
    ``__post_init__`` check, which stays on every public construction."""
    label = object.__new__(CellLabel)
    label.__dict__.update(J=J, v=v, w=w, vp=vp, wp=wp, y=y, yp=yp)
    return label


# ---------------------------------------------------------------------------
# sampling

def chart_point(label: CellLabel, coords) -> CompactPoint:
    """The image of coords under the label's chart, with coords in the order
    of ``_chart``.  Positive coords give a point of the cell; zero and
    negative ones are allowed too, except for a coroot coordinate, which
    must be nonzero.  Raises CellError when the count is not the chart's
    or a coroot coordinate is 0."""
    n = label.J.n
    word1, word2 = _chart_words(_chart(label, [frac(c) for c in coords]))
    return CompactPoint(label.J, _word_element(n, word1), _word_element(n, word2).T)


def sample_cell(label: CellLabel, seed: int) -> tuple[tuple[Fraction, ...], CompactPoint]:
    """Draw a point of the labeled cell: (coords, chart_point(label,
    coords)) for dimension_of(label) positive coordinates drawn from
    Random(seed) in the order of ``_chart``.  The point is
    (g·l, ψ(g'))·z°_J, that is (^g P_J, ^{ψ(g')⁻¹} Q_J, g·H·l·U·ψ(g')),
    with g, g' Marsh-Rietsch positive and l in the Levi double cell indexed
    by (y·w^J_0, w^J_0·y')."""
    if not label.is_nonempty():
        raise EmptyCellError(f"refusing to sample the empty cell {label}")
    coords = _sample_coords(label, seed)
    return coords, chart_point(label, coords)


def _sample_coords(label: CellLabel, seed: int) -> tuple[Fraction, ...]:
    """sample_cell's coordinates: dimension_of(label) draws from Random(seed)."""
    rng = random.Random(seed)
    return tuple(rand_pos_fraction(rng) for _ in range(dimension_of(label)))


def _chart(label: CellLabel, coords):
    """The sampler's chart (g·l, ψ(g')) of the label at coords: the flag
    charts (p1, c1) and (p2, c2) over the positive subexpressions for
    v ≤ w and v' ≤ w' in the lexicographically least reduced words of w
    and w', and the Levi double cell (y·w^J_0, w^J_0·y', lower leg, torus,
    upper leg).

    coords are cut in one order: the free steps of flag chart 1, those of
    flag chart 2, the coroots j ∈ J, the Levi's lower leg and its upper
    leg; the coroots outside J are the int 1.  Raises CellError when the
    count is not the chart's or a coroot coordinate is 0."""
    J = label.J
    w0j = J.longest_element()
    wm, wpl = label.y * w0j, w0j * label.yp
    p1, p2 = (
        positive_subexpression(lex_min_reduced_word(w), v)
        for v, w in ((label.v, label.w), (label.vp, label.wp))
    )
    sizes = (len(p1.jcirc), len(p2.jcirc), len(J.J), wm.length, wpl.length)
    if len(coords) != sum(sizes):
        raise CellError(f"{len(coords)} coordinates for a chart of {sum(sizes)} in {label}")
    x = iter(coords)
    c1, c2, roots, aminus, aplus = (tuple(islice(x, k)) for k in sizes)
    if not all(roots):
        raise CellError(f"a coroot coordinate is 0 in {label}")
    roots = iter(roots)
    tor = tuple(next(roots) if i in J.J else 1 for i in range(1, J.n))
    return (p1, c1), (p2, c2), (wm, wpl, aminus, tor, aplus)


def _chart_words(chart) -> tuple[list, list]:
    """The words of a ``_chart``: flag chart 1 followed by the Levi double
    cell, and flag chart 2, whose element is transposed."""
    (p1, c1), (p2, c2), levi = chart
    return _mr_steps(p1, c1) + _double_cell_steps(*levi), _mr_steps(p2, c2)


# ---------------------------------------------------------------------------
# classification

def _flag_cell(J: ParabolicSubset, g: GroupMatrix) -> tuple[WeylElement, WeylElement]:
    """(v, w) of the parabolic ^gP_J: the positions of its Borel associated
    to B^+ from B^+ (w, which ``associated_borel`` returns with it) and
    from B^- (w₀·v, one Bruhat cell)."""
    n = J.n
    b, w = associated_borel(J, g, identity_g(n))
    return longest_w(n) * bruhat_cell(borel_minus(n).inverse() @ b), w


def classify(z: CompactPoint) -> CellLabel:
    """Read the cell label off relative positions.

    The flag cells are those of ^{g1}P_J and ^{ψ(g2)}P_J = ψ(^{g2⁻¹}Q_J).
    Valid on points of nonempty positive cells (sampler output, torus limits
    of nonnegative data, positive retractions).  Raises CellError when the
    positions fall outside the expected cosets (the CellLabel constructor),
    and EmptyCellError when they form an empty label: no point of the
    nonnegative part lies in it.
    """
    J = z.J
    n = z.n
    w0 = longest_w(n)
    v, w = _flag_cell(J, z.g1)
    vp, wp = _flag_cell(J, z.g2.T)
    y = _gamma_position(z, identity_g(n)) * w0
    yp = _gamma_position(z, borel_minus(n)) * w0
    label = CellLabel(J, v, w, vp, wp, y, yp)
    if not label.is_nonempty():
        raise EmptyCellError(f"the point classifies to the empty cell {label}")
    return label


def _gamma_position(z: CompactPoint, h: GroupMatrix) -> WeylElement:
    """pos(assoc(P, B), γ·assoc(Q, B)) for z = (P, Q, γ) = (^{g1}P_J,
    ^{g2⁻¹}Q_J, g1·g2) and B = ^hB^+, read in the base-point frame:
    conjugating both Borels by g1⁻¹ gives pos(assoc(P_J, ^{g1⁻¹h}B^+),
    assoc(Q_J, ^{g2·h}B^+)), since associated Borels are equivariant.  Q_J
    is ^{ẇ₀}P_{J*}."""
    n = z.n
    bp, _ = associated_borel(z.J, identity_g(n), z.g1.inverse() @ h)
    bq, _ = associated_borel(z.J.star(), borel_minus(n), z.g2 @ h)
    return bruhat_cell(bp.inverse() @ bq)


# ---------------------------------------------------------------------------
# exact Jacobian rank of the chart map

_P = 2**61 - 1  # the prime of the full-rank certificate


def jacobian_rank_check(label: CellLabel, seed: int) -> bool:
    """True iff the chart map has exact rank equal to the cell dimension at
    one chart point: the coordinates of ``sample_cell(label, seed)``, so
    ``tnncompact sample --label-file <label> --seed <seed>`` replays the
    point, and its ``charts`` block holds the coordinates that were ranked.

    Coordinates: those of ``_chart``, in its order: the free Marsh-Rietsch
    steps of both charts, one coroot coordinate per j ∈ J, and the two
    unipotent legs of the Levi double cell.  The rank is that of the
    chart's tangent vectors in the stratum Z_J (``_tangent_rank``), equal
    to its rank into the fundamental representations, since Z_J embeds in
    ∏_k P(End Λ^k).

    ``_full_rank`` certifies rank d mod p = 2^61 − 1 first, and runs the
    exact rank only on a miss.  That is sound: the chart has d tangent
    vectors, and reduction mod p can only lower a rank, so a rank of d mod
    p proves the exact rank is d.
    """
    coords = _sample_coords(label, seed)
    return _full_rank(label.J, *_chart_words(_chart(label, coords)), len(coords))


def _full_rank(J: ParabolicSubset, word1, word2, d: int) -> bool:
    """True iff ``_tangent_rank(J, word1, word2)`` is d, for the words of a
    chart of dimension d: by the rank mod ``_P`` (``jacobian_rank_check``),
    and by the exact rank on a miss, which includes a residue with no
    inverse."""
    try:
        rank = _tangent_rank(J, word1, word2, _P)
    except ValueError:  # a residue with no inverse mod p
        rank = None
    if rank != d:
        rank = _tangent_rank(J, word1, word2)
    return rank == d


def _tangent_rank(J: ParabolicSubset, word1, word2, p: int | None = None) -> int:
    """Exact rank, at the steps' Fraction values, of the chart
    (F_1···F_m, (G_1···G_r)ᵀ) of a point (g1, g2⁻¹)·z°_J of Z_J; over Z/p
    when p is given (``_tangent_vectors``), which can only lower it.

    The variables are every x_i and y_i step and the coroots j ∈ J of a
    torus step.  The orbit map (h1, h2) ↦ (h1, h2)·z°_J is a submersion, so
    the rank is that of the left-translated tangent vectors (ξ1, ξ2) in
    gl_n ⊕ gl_n modulo the Lie algebra of the stabilizer of z°_J: the pairs
    in p_J ⊕ q_J whose Levi parts agree modulo the centre of l_J (De Concini
    and Procesi, *Complete symmetric varieties*, 1983).  The quotient reads
    ξ1 below the J-block diagonal, ξ2 above it, and ξ1 − ξ2 on the blocks
    modulo block scalars (off-diagonal entries and differences of
    consecutive diagonal entries): n² − (n − |J|) = dim Z_J coordinates.
    Word 2 enters transposed and inverted, so its vectors are ξ2 = −ξᵀ.
    """
    below, within, links = _quotient_layout(J)
    zeros = [0] * len(below)
    rows = []
    for xi in _tangent_vectors(J, word1, p):
        rows.append(
            [xi[r][c] for r, c in below]
            + zeros
            + [xi[r][c] for r, c in within]
            + [xi[j - 1][j - 1] - xi[j][j] for j in links]
        )
    for xi in _tangent_vectors(J, word2, p):
        rows.append(
            zeros
            + [-xi[r][c] for r, c in below]
            + [xi[c][r] for r, c in within]
            + [xi[j - 1][j - 1] - xi[j][j] for j in links]
        )
    return la.rank(rows) if p is None else la._rank_mod_p(rows, p)


@cache
def _quotient_layout(J: ParabolicSubset):
    """The quotient coordinates of ``_tangent_rank`` for stratum J: the
    positions (r, c) below the J-block diagonal, the off-diagonal positions
    inside the blocks, and the j ∈ J whose diagonal entries j−1, j share a
    block (0-based indices), computed once per J."""
    block = [k for k, blk in enumerate(J.blocks0()) for _ in blk]
    cells = [(r, c) for r in range(J.n) for c in range(J.n)]
    below = tuple((r, c) for r, c in cells if block[r] > block[c])
    within = tuple((r, c) for r, c in cells if r != c and block[r] == block[c])
    return below, within, tuple(sorted(J.J))


def _tangent_vectors(J: ParabolicSubset, word, p: int | None = None):
    """For the word F_1···F_m, one tangent vector per variable, up to a
    nonzero factor: ξ = S⁻¹·(F_k⁻¹·∂F_k)·S with S = F_{k+1}···F_m, in the
    order of the steps from right to left.

    F_k⁻¹·∂F_k is E_{i−1,i} for x_i and E_{i,i−1} for y_i, so ξ is column
    u of S⁻¹ times row v of S; for a coroot a_j it is diag(1 at j−1, −1 at
    j) over a_j.  One pass keeps S by row operations and the columns of S⁻¹
    by the matching column operations.  When p is given, each value a/b
    is read as a·b⁻¹ mod p, so the integer entries are congruent mod p to
    the rational ones; ``pow`` raises ValueError when p divides b."""
    n = J.n
    ratio = Fraction if p is None else (lambda a, b: a * pow(b, -1, p) % p)
    s = [[int(r == c) for c in range(n)] for r in range(n)]  # S, by rows
    t = [[int(r == c) for c in range(n)] for r in range(n)]  # S⁻¹, by columns

    def outer(u, v):
        return [[x * y for y in s[v]] for x in t[u]]

    for kind, i, a in reversed(word):
        if kind == "x":
            yield outer(i - 1, i)
            a = ratio(a.numerator, a.denominator)
            s[i - 1] = [x + a * y for x, y in zip(s[i - 1], s[i])]
            t[i] = [x - a * y for x, y in zip(t[i], t[i - 1])]
        elif kind == "y":
            yield outer(i, i - 1)
            a = ratio(a.numerator, a.denominator)
            s[i] = [x + a * y for x, y in zip(s[i], s[i - 1])]
            t[i - 1] = [x - a * y for x, y in zip(t[i - 1], t[i])]
        elif kind == "s":
            s[i - 1], s[i] = [-x for x in s[i]], s[i - 1]
            t[i - 1], t[i] = [-x for x in t[i]], t[i - 1]
        else:
            for j in sorted(J.J):
                yield [
                    [x - y for x, y in zip(r0, r1)]
                    for r0, r1 in zip(outer(j - 1, j - 1), outer(j, j))
                ]
            a = [ratio(x.numerator, x.denominator) for x in a]
            for k, (c, q) in enumerate(zip([*a, 1], [1, *a])):
                if c != q:
                    d, e = ratio(c, q), ratio(q, c)
                    s[k] = [x * d for x in s[k]]
                    t[k] = [x * e for x in t[k]]
