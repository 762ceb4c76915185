"""Boundary strata of the group compactification, one point per action pair.

A stratum point is (g1, g2⁻¹)·z°_J, where z°_J is the base point of the
stratum of type J, and we store it as (J, g1, g2).  As a triple it is
(^{g1}P_J, ^{g2⁻¹}Q_J, H·g1·g2·U): P conjugate to the standard parabolic of
type J, Q to its opposite, and a coset γ with P opposed to the γ-conjugate
of Q.  ``CompactPoint.of_triple`` reads the pair of a triple off the Levi
part of its integer matrix in the base-point frame.

A point is identified by its stratum J and its fundamental tuple, the image
ρ_k(g1)·D_k·ρ_k(g2) in every P(End Λ^k), k = 1..n-1: the wonderful
compactification of PGL_n is the closure of PGL_n in ∏_k P(End Λ^k), the
space of complete collineations (Thaddeus, "Complete collineations
revisited", Math. Ann. 315, 1999).  Each entry is a projective point, so
the tuple is computed on the integer pair (M1, M2), M_i a positive
multiple of g_i: a positive multiple of the rational images, built with
no Fraction.
Membership in the positive part and the paper's (*) pair read its signs;
``==`` and ``hash`` read its normal form ``point_key``, J and the
primitive integer matrix of each entry.  Both are cached properties of
the point: J, g1 and g2 never change, so neither is ever stale, and
neither passes from one point to another.  A torus limit is its closed
form, the acted base point, with no check: its Cauchy–Binet limit is the
point's own image in every degree (see ``torus_limit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, repeat
from math import comb
from operator import itemgetter, mul

from . import linalg as la
from .exterior import (
    EmbeddingData,
    _kept_minors,
    _ladder,
    _levi_weight_positions,
    compounds,
    proj_key,
    strictly_signed,
    subsets_colex,
)
from .linalg import FactorizationError, Matrix
from .matgroup import GroupMatrix, _reduced, identity_g
from .tnn import is_totally_positive
from .weyl import ParabolicSubset


class StrataError(Exception):
    pass


class PositivityCertificateError(StrataError):
    pass


@dataclass(frozen=True, eq=False)
class CompactPoint:
    """The point (g1, g2⁻¹)·z°_J of the stratum of type J.

    Any pair of group elements of size n is a point; the constructor checks
    the sizes only.  ``==`` and ``hash`` read its key (``point_key``), and
    signs its fundamental tuple (``_key`` and ``_images``, each a cached
    property).
    """

    J: ParabolicSubset
    g1: GroupMatrix
    g2: GroupMatrix

    def __post_init__(self):
        _check_sizes(self.J, self.g1, self.g2)

    @cached_property
    def _images(self) -> tuple[Matrix, ...]:
        return tuple(_limit_images(self.J, self.g1.M, self.g2.M))

    @cached_property
    def _key(self) -> tuple:
        return (self.J, tuple(map(proj_key, self._images)))

    @classmethod
    def of_triple(
        cls, J: ParabolicSubset, a: GroupMatrix, b: GroupMatrix, g: GroupMatrix
    ) -> CompactPoint:
        """The point (^a P_J, ^b Q_J, H·g·U), namely (a·l, b⁻¹) with l the
        Levi part of a⁻¹·g·b: that representative factors as
        block-upper-unipotent × l × block-lower-unipotent.  l is the
        primitive part of the Levi part of the integer matrix c·a⁻¹·g·b,
        which is c·l.  Raises StrataError when a size is not J.n or when
        the factorization does not exist, i.e. when the triple violates
        opposedness."""
        _check_sizes(J, a, b, g)
        try:
            l = la.levi_part((a.inverse() @ g @ b).M, J.blocks0())
        except FactorizationError as e:
            raise StrataError(f"triple violates opposedness: {e}") from e
        return cls(J, a @ _reduced(tuple(map(tuple, la._integer_form(l)[0]))), b.inverse())

    @property
    def n(self) -> int:
        return self.J.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactPoint):
            return NotImplemented
        return point_key(self) == point_key(other)

    def __hash__(self) -> int:
        return hash(point_key(self))

    def __repr__(self) -> str:
        return f"CompactPoint(J={sorted(self.J.J)}, n={self.n})"


def _check_sizes(J: ParabolicSubset, *gs: GroupMatrix) -> None:
    if any(g.n != J.n for g in gs):
        raise StrataError(f"point matrices must all be {J.n}×{J.n}")


def base_point(J: ParabolicSubset) -> CompactPoint:
    e = identity_g(J.n)
    return CompactPoint(J, e, e)


def act(h1: GroupMatrix, h2: GroupMatrix, z: CompactPoint) -> CompactPoint:
    """(h1, h2)·(g1, g2⁻¹)·z°_J = (h1·g1, (g2·h2⁻¹)⁻¹)·z°_J."""
    return CompactPoint(z.J, h1 @ z.g1, z.g2 @ h2.inverse())


def psibar(z: CompactPoint) -> CompactPoint:
    """Extension of the transpose antiautomorphism ψ: (P, Q, γ) ↦ (ψQ, ψP,
    ψγ).  ψ fixes z°_J, so ψ̄((g1, g2⁻¹)·z°_J) = (ψ(g2), ψ(g1)⁻¹)·z°_J."""
    return CompactPoint(z.J, z.g2.T, z.g1.T)


# ---------------------------------------------------------------------------
# embedding into projective matrix pairs

def iJ_of_point(z: CompactPoint, data: EmbeddingData) -> tuple[Matrix, Matrix]:
    """The paper's (*) pair ([ρ1(g1)·I_1·ρ1(g2)], [ρ2(g1)·I_L·ρ2(g2)]),
    understood projectively: the integer entries of degrees data.k1 and
    data.k2 of fundamental_tuple(z), since I_1 and I_L are the limit
    projectors of those degrees.  Degree 0 gives the 1×1 matrix (1)."""
    images = [((1,),), *fundamental_tuple(z)]
    return (images[data.k1], images[data.k2])


def fundamental_tuple(z: CompactPoint) -> list[Matrix]:
    """The image of z in every fundamental representation, as integer
    matrices: the k-th entry is ρ_k(M1)·D_k·ρ_k(M2), a positive multiple of
    ρ_k(g1)·D_k·ρ_k(g2) since M_i is one of g_i, D_k the stratum's limit
    projector.  Each entry is a point of P(End Λ^k), and the positive
    scalar changes neither that point nor the sign of any entry.

    The entries are kept on z (``CompactPoint._images``): its fields are
    immutable, so they stay its images.  Each call returns a new list of
    the kept (immutable) matrices."""
    return list(z._images)


def point_key(z: CompactPoint) -> tuple:
    """The normal form of z: its stratum J and the proj_key of each entry
    of its fundamental tuple, which ``==`` and ``hash`` read, kept on z
    (``CompactPoint._key``) as the tuple is."""
    return z._key


def _limit_images(J: ParabolicSubset, m1: Matrix, m2: Matrix) -> list[Matrix]:
    """ρ_k(m1)·D_k·ρ_k(m2) for k = 1..n-1, over any ring.

    D_k = stratum_indicator(J, k) is a 0/1 diagonal projector onto the
    kept (Levi-weight) k-subsets K_k, so the entry is A_k·B_kᵀ summed over
    K_k, where A_k holds the minors of m1 on the columns K_k and B_k those
    of m2ᵀ, over every row set: only those minors are built (the ladder of
    ``_kept_plan``), and the entry is an outer product when |K_k| = 1.  On
    J = I every subset is kept and D_k = 1, so the entry is ρ_k(m1·m2) by
    Cauchy–Binet: the ``compounds`` of one ``linalg.matmul``."""
    if len(J.J) == J.n - 1:
        return list(compounds(la.matmul(m1, m2), J.n - 1))
    zero = m1[0][0] - m1[0][0]
    ladder, products = _kept_plan(J)
    images = []
    for a, b, (rows, q, left, right) in zip(
        _kept_minors(tuple(chain.from_iterable(m1)), ladder),
        _kept_minors(tuple(chain.from_iterable(zip(*m2))), ladder),
        products,
    ):
        flat = map(mul, left(a), right(b))
        if q > 1:
            flat = map(sum, zip(*[flat] * q), repeat(zero))
        images.append(tuple(zip(*[flat] * rows)))
    return images


@cache
def _pairing(rows: int, q: int):
    """Two getters that pair A[T, S1] with B[T, S2] for every (S1, S2, T),
    S1 and S2 in range(rows) and T in range(q), in that order, out of two
    flat tuples of q blocks of rows entries each."""
    cells = [(a, b, t * rows) for a in range(rows) for b in range(rows) for t in range(q)]
    return itemgetter(*(t + a for a, _, t in cells)), itemgetter(*(t + b for _, b, t in cells))


@cache
def _kept_plan(J: ParabolicSubset):
    """The ladder (``exterior._ladder``) of the minors of an n×n matrix on
    the kept column sets K_k = _levi_weight_positions(n, k, J),
    k = 1..n−1, over every row set, and per degree C(n, k), |K_k| and the
    ``_pairing`` getters that sum A_k·B_kᵀ over K_k from two such families.

    A kept set is B_<i ∪ S′ with S′ inside the one block B_i that k
    reaches, so dropping its largest element leaves a kept set of degree
    k−1, as the ladder asks."""
    n = J.n
    kept = [
        [subsets_colex(n, k)[i] for i in _levi_weight_positions(n, k, J)] for k in range(1, n)
    ]
    products = tuple(
        (comb(n, k), len(level), *_pairing(comb(n, k), len(level)))
        for k, level in enumerate(kept, 1)
    )
    return _ladder(n, kept), products


# ---------------------------------------------------------------------------
# torus limits

def torus_limit(g1: GroupMatrix, c, g2: GroupMatrix) -> CompactPoint:
    """Limit of (g1, g2⁻¹)·t(s) as s → 0 along the torus curve with
    α_i(t(s)) = s^{-c_i}: the point (g1, g2⁻¹)·z°_J of the stratum
    J = {i : c_i = 0}, by equivariance.

    No check follows, because none can fail.  With t(s) = diag(s^{-e}),
    Cauchy–Binet gives ρ_k(g1·t(s)·g2) = Σ_S s^{-e_S}·ρ_k(g1)[:, S]·ρ_k(g2)[S, :]
    over the k-subsets S, so its limit keeps the S of largest weight e_S.
    e is constant on each J-block and drops from one block to the next, so
    those S are J's Levi-weight positions and the limit is the point's own
    image ρ_k(g1)·D_k·ρ_k(g2) in every degree.  The tests decide this once,
    against the curve's weights, for n ≤ 7.
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
    return CompactPoint(J, g1, g2)


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
    top cells; the positivity-converse suite samples lower cells of every
    stratum at its n.  ψ̄ needs no separate check: it transposes every
    entry of the tuple.  fundamental_tuple's integer entries are positive
    multiples of the rational ones, so they have the same signs.
    """
    return all(strictly_signed(m) for m in fundamental_tuple(z))


def positive_retraction(
    g1: GroupMatrix, g2: GroupMatrix, z: CompactPoint
) -> CompactPoint:
    """(g1, g2⁻¹)·z = (g1·z.g1, (z.g2·g2)⁻¹)·z°_J for certified strictly
    positive g1, g2: pushes any point of the nonnegative part into the
    positive part."""
    if not is_totally_positive(g1) or not is_totally_positive(g2):
        raise PositivityCertificateError("retraction pair must be strictly positive")
    out = CompactPoint(z.J, g1 @ z.g1, z.g2 @ g2)
    if not membership_Zgt0(out):
        raise StrataError("retraction output failed the positivity test")
    return out
