"""Boundary strata of the group compactification as triples.

A stratum point is (P, Q, γ) with P conjugate to the standard parabolic of
type J, Q to its opposite, and γ = H_P·g·U_Q a coset with P opposed to the
g-conjugate of Q.  We store the pair of conjugators and one coset
representative, and carry the Levi part of the base-frame representative
through the two-sided action and ψ̄.

A point is identified by its stratum J and its fundamental tuple, the image
ρ_k(g1)·D_k·ρ_k(g2) in every P(End Λ^k), k = 1..n-1: the wonderful
compactification of PGL_n is the closure of PGL_n in ∏_k P(End Λ^k), the
space of complete collineations (Thaddeus, "Complete collineations
revisited", Math. Ann. 315, 1999).  Equality, membership in the positive
part, the paper's (*) pair and the check of torus limits all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg as la
from .exterior import (
    EmbeddingData,
    _levi_weight_positions,
    compounds,
    proj_equal,
    strictly_signed,
)
from .laurent import lmat_limit, lmat_torus_curve
from .linalg import FactorizationError, Matrix
from .matgroup import GroupMatrix, _trusted, identity_g
from .tnn import is_totally_positive
from .weyl import ParabolicSubset


class StrataError(Exception):
    pass


class PositivityCertificateError(StrataError):
    pass


class LimitVerificationError(StrataError):
    pass


@dataclass(frozen=True, eq=False)
class CompactPoint:
    """Stratum point (^a P_J, ^b Q_J, H·g·U), carrying its stratum label J.

    The base-frame representative a⁻¹·g·b factors as block-upper-unipotent ×
    block-diagonal × block-lower-unipotent; the middle factor is the Levi
    part.  Construction fails if the factorization does not exist, i.e. if
    the triple violates the opposedness constraint.
    """

    J: ParabolicSubset
    a: GroupMatrix
    b: GroupMatrix
    g: GroupMatrix

    def __post_init__(self):
        self.levi  # validates opposedness

    @property
    def n(self) -> int:
        return self.J.n

    @cached_property
    def levi(self) -> GroupMatrix:
        """Levi part of the representative a⁻¹·g·b; raises StrataError when
        the triple violates opposedness."""
        h = (self.a.inverse() @ self.g @ self.b).m
        try:
            return _trusted(la.levi_part(h, self.J.blocks0()))
        except FactorizationError as e:
            raise StrataError(f"triple violates opposedness: {e}") from e

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactPoint):
            return NotImplemented
        if self.J != other.J:
            return False
        # the fundamental tuples of both points, on one pair of integer scalings
        (m1, m2), (p1, p2) = _integer_pairs(
            *((g1.m, g2.m) for g1, g2 in map(action_pair, (self, other)))
        )
        return all(map(proj_equal, _limit_images(self.J, m1, m2), _limit_images(self.J, p1, p2)))

    # equality is projective equality of the fundamental tuple; no canonical
    # form is kept to hash
    __hash__ = None

    def __repr__(self) -> str:
        return f"CompactPoint(J={sorted(self.J.J)}, n={self.n})"


def _trusted_point(
    J: ParabolicSubset, a: GroupMatrix, b: GroupMatrix, g: GroupMatrix, levi: GroupMatrix
) -> CompactPoint:
    """A CompactPoint whose Levi part is already known: skips the
    ``__post_init__`` factorization, which stays on every public
    construction."""
    z = object.__new__(CompactPoint)
    z.__dict__.update(J=J, a=a, b=b, g=g, levi=levi)
    return z


def base_point(J: ParabolicSubset) -> CompactPoint:
    e = identity_g(J.n)
    return _trusted_point(J, e, e, e, e)


def act(g1: GroupMatrix, g2: GroupMatrix, z: CompactPoint) -> CompactPoint:
    """(g1, g2)·(P, Q, H g U) = (^{g1}P, ^{g2}Q, H (g1 g g2⁻¹) U).

    The base-frame representative (g1·a)⁻¹·(g1·g·g2⁻¹)·(g2·b) = a⁻¹·g·b is
    unchanged, so the Levi part carries over."""
    return _trusted_point(
        z.J, g1 @ z.a, g2 @ z.b, g1 @ z.g @ g2.inverse(), z.levi
    )


def psibar(z: CompactPoint) -> CompactPoint:
    """Extension of the transpose antiautomorphism: (P,Q,γ) ↦ (ψQ, ψP, ψγ).

    The new base-frame representative is (a⁻¹·g·b)ᵀ, and transposing
    swaps the two block-unipotent factors, so the Levi part is z's
    transposed."""
    return _trusted_point(
        z.J, z.b.T.inverse(), z.a.T.inverse(), z.g.T, z.levi.T
    )


def group_point(J: ParabolicSubset, g: GroupMatrix) -> CompactPoint:
    """The point of the open stratum Z_I corresponding to g (J must be full)."""
    if not J.full():
        raise StrataError("group_point lives in the open stratum only")
    e = identity_g(J.n)
    return CompactPoint(J, e, e, g)


# ---------------------------------------------------------------------------
# embedding into projective matrix pairs

def action_pair(z: CompactPoint) -> tuple[GroupMatrix, GroupMatrix]:
    """(g1, g2) with z = (g1, g2⁻¹)·z°_J, namely g1 = a·levi and g2 = b⁻¹."""
    return (z.a @ z.levi, z.b.inverse())


def iJ_of_point(z: CompactPoint, data: EmbeddingData) -> tuple[Matrix, Matrix]:
    """The paper's (*) pair ([ρ1(g1)·I_1·ρ1(g2)], [ρ2(g1)·I_L·ρ2(g2)]),
    understood projectively: the entries of degrees data.k1 and data.k2 of
    fundamental_tuple(z), since I_1 and I_L are the limit projectors of
    those degrees.  Degree 0 gives the 1×1 matrix (1)."""
    images = [((Fraction(1),),), *fundamental_tuple(z)]
    return (images[data.k1], images[data.k2])


def fundamental_tuple(z: CompactPoint) -> list[Matrix]:
    """The image of z in every fundamental representation: the k-th entry is
    ρ_k(g1)·D_k·ρ_k(g2) with D_k the stratum's limit projector."""
    g1, g2 = action_pair(z)
    return _limit_images(z.J, g1.m, g2.m)


def _limit_images(J: ParabolicSubset, m1: Matrix, m2: Matrix) -> list[Matrix]:
    """ρ_k(m1)·D_k·ρ_k(m2) for k = 1..n-1, from one compound pass per side,
    over any ring.  D_k = stratum_indicator(J, k) is a 0/1 diagonal
    projector, so it is applied by keeping the columns of ρ_k(m1) and the
    rows of ρ_k(m2) it selects."""
    out = []
    for k, (c1, c2) in enumerate(zip(compounds(m1, J.n - 1), compounds(m2, J.n - 1)), 1):
        keep = _levi_weight_positions(J.n, k, J)
        cols = tuple(tuple(row[s] for s in keep) for row in c1)
        out.append(la.matmul(cols, tuple(c2[s] for s in keep)))
    return out


def _integer_pairs(*pairs: tuple[Matrix, Matrix]) -> list[tuple[Matrix, Matrix]]:
    """Each square pair (m1, m2) as the integer pair (D1·m1, m2·D2), with the
    same positive diagonals D1 and D2 for every pair: row i of each m1 times
    the lcm of the denominators in row i of all of them, and likewise for
    the columns of the m2.

    ρ_k(D) is a positive diagonal for a positive diagonal D, so every
    ρ_k(D1·m1)·D_k·ρ_k(m2·D2) is ρ_k(D1)·(ρ_k(m1)·D_k·ρ_k(m2))·ρ_k(D2):
    entrywise signs, and projective equality between the images of two
    pairs, are those of the rational pairs."""
    n = len(pairs[0][0])
    rows = [lcm(*(x.denominator for m1, _ in pairs for x in m1[i])) for i in range(n)]
    cols = [lcm(*(m2[i][j].denominator for _, m2 in pairs for i in range(n))) for j in range(n)]
    out = []
    for m1, m2 in pairs:
        left = tuple(
            tuple(x.numerator * (r // x.denominator) for x in row) for r, row in zip(rows, m1)
        )
        right = tuple(
            tuple(x.numerator * (c // x.denominator) for x, c in zip(row, cols)) for row in m2
        )
        out.append((left, right))
    return out


# ---------------------------------------------------------------------------
# torus limits

def _curve_exponents(c: tuple[int, ...]) -> list[int]:
    """Diagonal exponents e_i = sum of c_m for m >= i (e_n = 0)."""
    n = len(c) + 1
    e = [0] * n
    for i in range(n - 2, -1, -1):
        e[i] = e[i + 1] + c[i]
    return e


def torus_limit(g1: GroupMatrix, c, g2: GroupMatrix) -> CompactPoint:
    """Limit of (g1, g2⁻¹)·t(s) as s → 0 along the torus curve with
    α_i(t(s)) = s^{-c_i}; lands in the stratum J = {i : c_i = 0}.

    The triple is produced by equivariance; then every fundamental
    representation's limit is recomputed from the exact Laurent curve by
    minimal-valuation normalization and compared projectively with the
    triple's image.
    """
    cs = tuple(c)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in cs):
        raise StrataError(f"exponents must be integers, got {cs}")
    n = g1.n
    if g2.n != n:
        raise StrataError(f"g1 is {n}×{n} but g2 is {g2.n}×{g2.n}")
    if len(cs) != n - 1:
        raise StrataError(f"need {n - 1} exponents, got {len(cs)}")
    if any(x < 0 for x in cs):
        raise StrataError("exponent vector must be nonnegative")
    J = ParabolicSubset.of(n, (i + 1 for i, x in enumerate(cs) if x == 0))
    # act(g1, g2⁻¹, base_point(J)) in closed form: the base point is all identities
    z = _trusted_point(J, g1, g2.inverse(), g1 @ g2, identity_g(n))
    _verify_torus_limit(g1, cs, g2, z)
    return z


def _verify_torus_limit(
    g1: GroupMatrix, cs: tuple[int, ...], g2: GroupMatrix, z: CompactPoint
) -> None:
    """Raise LimitVerificationError unless, in every degree k, the limit of
    ρ_k(g1·t(s)·g2) along the curve of exponents cs is z's image
    ρ_k(h1)·D_k·ρ_k(h2), (h1, h2) = action_pair(z), projectively.  Both
    sides run on the integer pairs of _integer_pairs."""
    n = g1.n
    e = _curve_exponents(cs)
    h1, h2 = action_pair(z)
    (m1, m2), (p1, p2) = _integer_pairs((g1.m, g2.m), (h1.m, h2.m))
    x = lmat_torus_curve(m1, [-ei for ei in e], m2)
    expected = _limit_images(z.J, p1, p2)
    for k, (want, cx) in enumerate(zip(expected, compounds(x, n - 1)), start=1):
        if not proj_equal(lmat_limit(cx), want):
            raise LimitVerificationError(
                f"Laurent limit disagrees with the equivariant limit at degree {k}"
            )


# ---------------------------------------------------------------------------
# positivity tests

def membership_Zgt0(z: CompactPoint) -> bool:
    """Membership of z in the positive part Z_{J,>0} of its stratum: every
    entry ρ_k(g1)·D_k·ρ_k(g2) of the fundamental tuple is strictly signed.

    Precondition: z lies in the nonnegative part Z_{J,≥0} (e.g. it was built
    by a cell sampler, a torus limit of nonnegative data, or a positive
    retraction).  Outside it the test is not a criterion.

    Why it decides Z_{J,>0} on that set: each entry depends on z only up to
    a scalar, and a point of Z_{J,>0} is (h1, h2⁻¹)·z°_J with h1, h2
    totally positive.  ρ_k(h) is entrywise positive on the canonical (wedge)
    basis (Lusztig, "Total positivity in reductive groups", 1994), so
    ρ_k(h1)·D_k·ρ_k(h2), a nonempty sum of products of a positive column and
    a positive row, is positive.  Every entry is a limit of such matrices,
    hence nonnegative on Z_{J,≥0}; the converse, that each lower cell of
    Z_{J,≥0} makes some entry vanish, is checked in the tests against the
    labels of sampled points and the classifier: every n = 3 cell, sampled
    n = 4 cells (J = {2}, where Plücker and Lusztig positivity of partial
    flags differ, included: Bloch and Karp, Adv. Math. 2023) and the n = 5
    top cells.  ψ̄ needs no separate check: it transposes every entry of
    the tuple.  The entries are computed on the integer pair of
    _integer_pairs, which scales each of them by positive numbers only.
    """
    g1, g2 = action_pair(z)
    ((m1, m2),) = _integer_pairs((g1.m, g2.m))
    return all(strictly_signed(m) for m in _limit_images(z.J, m1, m2))


def positive_retraction(
    g1: GroupMatrix, g2: GroupMatrix, z: CompactPoint
) -> CompactPoint:
    """(g1, g2⁻¹)·z for certified strictly positive g1, g2: pushes any point
    of the nonnegative part into the positive part."""
    if not is_totally_positive(g1) or not is_totally_positive(g2):
        raise PositivityCertificateError("retraction pair must be strictly positive")
    out = act(g1, g2.inverse(), z)
    if not membership_Zgt0(out):
        raise StrataError("retraction output failed the positivity test")
    return out
