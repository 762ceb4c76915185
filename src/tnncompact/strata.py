"""Boundary strata of the group compactification as triples.

A stratum point is (P, Q, γ) with P conjugate to the standard parabolic of
type J, Q to its opposite, and γ = H_P·g·U_Q a coset with P opposed to the
g-conjugate of Q.  We store the pair of conjugators and one coset
representative; the Levi part of the base-frame representative, taken
modulo the center of the Levi, is a complete invariant and everything
(equality, the two-sided action, ψ̄, the embedding into projective matrix
pairs, limits of torus curves, positivity tests) is computed through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg as la
from .exterior import (
    EmbeddingData,
    UnsupportedStratumError,
    compounds,
    embedding_data,
    proj_equal,
    strictly_signed,
    stratum_indicator,
)
from .laurent import Laurent, lmat_from_rational, lmat_limit
from .linalg import FactorizationError, Matrix
from .matgroup import GroupMatrix, identity_g, pi_factor
from .tnn import is_tnn_matrix, is_totally_positive, phi_plus, rand_pos_fraction
from .weyl import ParabolicSubset, WeylElement, lex_min_reduced_word


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
        h = (self.a.inverse() @ self.g @ self.b).m
        try:
            _, d, _ = la.block_anti_ldu(h, self.J.blocks0())
        except FactorizationError as e:
            raise StrataError(f"triple violates opposedness: {e}") from e
        return GroupMatrix(d)

    def levi_in_frame(self, a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
        h = (a.inverse() @ self.g @ b).m
        try:
            _, d, _ = la.block_anti_ldu(h, self.J.blocks0())
        except FactorizationError as e:
            raise StrataError(f"frame change left the opposed chart: {e}") from e
        return GroupMatrix(d)

    def canonical_levi(self) -> Matrix:
        """Levi part with each diagonal block scaled so its first nonzero
        entry is 1: a complete label for γ modulo the center of the Levi."""
        return _blockwise_normalized(self.levi.m, self.J.blocks0())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactPoint):
            return NotImplemented
        if self.J != other.J:
            return False
        p = self.a.inverse() @ other.a
        if not la.is_block_upper(p.m, self.J.blocks0()):
            return False
        q = self.b.inverse() @ other.b
        if not la.is_block_lower(q.m, self.J.blocks0()):
            return False
        try:
            other_levi = other.levi_in_frame(self.a, self.b)
        except StrataError:
            return False
        return self.canonical_levi() == _blockwise_normalized(
            other_levi.m, self.J.blocks0()
        )

    __hash__ = None  # equality is coset equality; no canonical form to hash

    def __repr__(self) -> str:
        return f"CompactPoint(J={sorted(self.J.J)}, n={self.n})"


def _blockwise_normalized(m: Matrix, blocks: list[list[int]]) -> Matrix:
    rows = [list(row) for row in m]
    for blk in blocks:
        pivot = next(
            (rows[i][j] for i in blk for j in blk if rows[i][j] != 0), None
        )
        if pivot is None:
            raise StrataError("zero diagonal block in Levi part")
        for i in blk:
            for j in blk:
                rows[i][j] /= pivot
    return tuple(tuple(row) for row in rows)


def base_point(J: ParabolicSubset) -> CompactPoint:
    e = identity_g(J.n)
    return CompactPoint(J, e, e, e)


def act(g1: GroupMatrix, g2: GroupMatrix, z: CompactPoint) -> CompactPoint:
    """(g1, g2)·(P, Q, H g U) = (^{g1}P, ^{g2}Q, H (g1 g g2⁻¹) U)."""
    return CompactPoint(z.J, g1 @ z.a, g2 @ z.b, g1 @ z.g @ g2.inverse())


def psibar(z: CompactPoint) -> CompactPoint:
    """Extension of the transpose antiautomorphism: (P,Q,γ) ↦ (ψQ, ψP, ψγ)."""
    return CompactPoint(
        z.J,
        z.b.T.inverse(),
        z.a.T.inverse(),
        z.g.T,
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
    """([ρ1(g1)·I_1·ρ1(g2)], [ρ2(g1)·I_L·ρ2(g2)]), understood projectively."""
    g1, g2 = action_pair(z)
    m1 = la.matmul(
        la.matmul(data.rep1.matrix(g1), data.I1), data.rep1.matrix(g2)
    )
    m2 = la.matmul(
        la.matmul(data.rep2.matrix(g1), data.IL), data.rep2.matrix(g2)
    )
    return (m1, m2)


def fundamental_tuple(z: CompactPoint) -> list[Matrix]:
    """The image of z in every fundamental representation: the k-th entry is
    ρ_k(g1)·D_k·ρ_k(g2) with D_k the stratum's limit projector."""
    g1, g2 = action_pair(z)
    return _limit_images(z.J, g1, g2)


def _limit_images(
    J: ParabolicSubset, g1: GroupMatrix, g2: GroupMatrix
) -> list[Matrix]:
    """ρ_k(g1)·D_k·ρ_k(g2) for k = 1..n-1, from one compound pass per side."""
    return [
        la.matmul(la.matmul(c1, stratum_indicator(J, k)), c2)
        for k, (c1, c2) in enumerate(
            zip(compounds(g1.m, J.n - 1), compounds(g2.m, J.n - 1)), start=1
        )
    ]


# ---------------------------------------------------------------------------
# torus limits

def _curve_exponents(c: tuple[int, ...]) -> list[int]:
    """Diagonal exponents e_i = sum of c_m for m >= i (e_n = 0)."""
    n = len(c) + 1
    e = [0] * n
    for i in range(n - 2, -1, -1):
        e[i] = e[i + 1] + c[i]
    return e


def torus_limit(
    g1: GroupMatrix, c, g2: GroupMatrix, verify: bool = True
) -> CompactPoint:
    """Limit of (g1, g2⁻¹)·t(s) as s → 0 along the torus curve with
    α_i(t(s)) = s^{-c_i}; lands in the stratum J = {i : c_i = 0}.

    The triple is produced by equivariance; when verify is set, every
    fundamental representation's limit is recomputed from the exact Laurent
    curve by minimal-valuation normalization and compared projectively.
    """
    cs = tuple(c)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in cs):
        raise StrataError(f"exponents must be integers, got {cs}")
    n = g1.n
    if len(cs) != n - 1:
        raise StrataError(f"need {n - 1} exponents, got {len(cs)}")
    if any(x < 0 for x in cs):
        raise StrataError("exponent vector must be nonnegative")
    J = ParabolicSubset.of(n, (i + 1 for i, x in enumerate(cs) if x == 0))
    z = act(g1, g2.inverse(), base_point(J))
    if verify:
        _verify_torus_limit(g1, cs, g2, z)
    return z


def _verify_torus_limit(
    g1: GroupMatrix, cs: tuple[int, ...], g2: GroupMatrix, z: CompactPoint
) -> None:
    n = g1.n
    e = _curve_exponents(cs)
    curve = tuple(
        tuple(
            Laurent.monomial(-e[i]) if i == j else Laurent.of(0) for j in range(n)
        )
        for i in range(n)
    )
    x = la.matmul(
        la.matmul(lmat_from_rational(g1.m), curve), lmat_from_rational(g2.m)
    )
    expected = _limit_images(z.J, g1, g2)
    for k, (want, cx) in enumerate(zip(expected, compounds(x, n - 1)), start=1):
        if not proj_equal(lmat_limit(cx), want):
            raise LimitVerificationError(
                f"Laurent limit disagrees with the equivariant limit at degree {k}"
            )


# ---------------------------------------------------------------------------
# positivity tests

def levi_in_Lge0_ZL(l: GroupMatrix, J: ParabolicSubset) -> bool:
    """l ∈ L_{≥0}·Z(L): every diagonal block totally nonnegative up to sign.

    Invertible ±TNN blocks factor as (lower TNN)·(positive diagonal)·
    (upper TNN), and per-block sign scalars lie in Z(L), so this is exact.
    """
    blocks = J.blocks0()
    lookup = {i: k for k, blk in enumerate(blocks) for i in blk}
    if any(
        l.m[i][j] != 0
        for i in range(l.n)
        for j in range(l.n)
        if lookup[i] != lookup[j]
    ):
        return False
    for blk in blocks:
        sub = la.submatrix(l.m, blk, blk)
        if not (is_tnn_matrix(sub) or is_tnn_matrix(la.scale(sub, Fraction(-1)))):
            return False
    return True


def membership_entrywise(z: CompactPoint, data: EmbeddingData) -> bool:
    """Condition (*): all four projective matrices strictly positive."""
    m1, m2 = iJ_of_point(z, data)
    m3, m4 = iJ_of_point(psibar(z), data)
    return all(strictly_signed(m) for m in (m1, m2, m3, m4))


def membership_Zgt0(z: CompactPoint) -> bool:
    """Membership of z in the positive part of its stratum.

    Precondition: z lies in the nonnegative part Z_{J,≥0} (e.g. it was built
    by a cell sampler, a torus limit of nonnegative data, or a positive
    retraction).  On that set both routes below are exact; the entrywise
    route is used whenever the representation pair matches the stratum
    supports verbatim, otherwise the point is classified and compared to the
    open-cell label.
    """
    try:
        data = embedding_data(z.J)
    except UnsupportedStratumError:
        data = None
    if data is not None and data.exact_criterion:
        return membership_entrywise(z, data)
    from .cells import classify, top_label

    return classify(z) == top_label(z.J)


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


# ---------------------------------------------------------------------------
# sampled diagnostic for membership in the nonnegative part

def _lower_tnn_frame(conj: GroupMatrix) -> GroupMatrix | None:
    """Lower-unipotent coset representative via LDU; None if the chart is
    left or the factor is not totally nonnegative."""
    try:
        um, _, _ = pi_factor(conj)
    except FactorizationError:
        return None
    if not is_tnn_matrix(um.m):
        return None
    return um


def z1_normal_form_check(z: CompactPoint) -> bool:
    """Does z admit the one-sided normal form: P and ψ(Q) conjugated by lower
    TNN unipotents and Levi part in L_{≥0}·Z(L)?"""
    u1 = _lower_tnn_frame(z.a)
    if u1 is None:
        return False
    u2 = _lower_tnn_frame(z.b.T.inverse())
    if u2 is None:
        return False
    b_frame = u2.T.inverse()
    try:
        l = z.levi_in_frame(u1, b_frame)
    except StrataError:
        return False
    return levi_in_Lge0_ZL(l, z.J)


def z1_membership_diagnostic(
    z: CompactPoint,
    v: WeylElement,
    vprime: WeylElement,
    samples: int,
    seed: int,
) -> bool:
    """Necessary-evidence test: for sampled u1 ∈ U^+_{v⁻¹,>0} and
    u2 ∈ U^+_{v'⁻¹,>0}, the translate (u1, ψ(u2)⁻¹)·z must admit the
    one-sided normal form.  Factorization failures count as False.

    The normal form is read off the stored conjugators, so the test expects
    chart-framed points (sampler output); conjugator rescalings inside P_J
    can only make it more conservative, never accepting.  The universal
    quantifier over translates is sampled, not proved.
    """
    rng = random.Random(seed)
    n = z.n
    for _ in range(max(1, samples)):
        u1 = _sample_upper(v.inverse(), rng)
        u2 = _sample_upper(vprime.inverse(), rng)
        translate = act(u1, u2.T.inverse(), z)
        if not z1_normal_form_check(translate):
            return False
    return True


def _sample_upper(w: WeylElement, rng: random.Random) -> GroupMatrix:
    word = lex_min_reduced_word(w)
    return phi_plus(word, [rand_pos_fraction(rng) for _ in range(len(word))])
