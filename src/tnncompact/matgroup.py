"""Exact matrix model of the adjoint group of type A_{n-1}.

Group elements are determinant-1 rational n×n matrices with projective
equality: M ~ ζM for the rational n-th roots of unity ζ, which means ±1
for even n and only +1 for odd n.  The pinning is the standard one,
x_i(a) = 1 + a·E_{i,i+1}, y_i(a) its transpose, and ψ (the positivity
antiautomorphism) is literally matrix transpose.

det = 1 is checked once, where a matrix enters: the public ``GroupMatrix``
constructor, which JSON readers, the CLI and callers go through.  Every
matrix this module builds itself (products, inverses, transposes, the
generators, tori and Weyl lifts, factorization parts, Levi parts) is a
group element by construction and goes through ``_trusted``, which checks
nothing.  Those matrices also carry their inverse where it is known in
closed form: x_i(a)⁻¹ = x_i(-a), ẇ⁻¹ = ẇᵀ, the reciprocal torus,
(gh)⁻¹ = h⁻¹g⁻¹ and (gᵀ)⁻¹ = (g⁻¹)ᵀ; only the rest are inverted by
elimination.

Flags and parabolic subgroups are stored by a conjugating group element.
Relative position is read off the rank profile of lower-left submatrices;
the associated Borel of a parabolic comes from one Bruhat elimination plus
coset arithmetic in W, and opposedness from whether the Levi part of the
two-sided block factorization exists, read off one Schur-complement pass
from the trailing block to the leading one.  All of it is exact and
tolerance-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence

from . import linalg as la
from .linalg import FactorizationError, Matrix, frac
from .weyl import ParabolicSubset, WeylElement, longest_w, simple_reflection


class GroupError(Exception):
    pass


@dataclass(frozen=True)
class GroupMatrix:
    """Determinant-1 rational matrix, equal to its n-th-root-of-unity rescalings.

    The constructor checks squareness and det = 1; build a matrix through
    it whenever the entries come from outside the library.
    """

    m: Matrix

    def __post_init__(self):
        n, nc = la.dims(self.m)
        if n != nc:
            raise GroupError("group matrix must be square")
        if la.det(self.m) != 1:
            raise GroupError("group matrix must have determinant 1")

    @property
    def n(self) -> int:
        return len(self.m)

    def canonical(self) -> Matrix:
        """Sign fixed by first nonzero entry > 0, when a sign flip is allowed."""
        if self.n % 2 == 1:
            return self.m
        for row in self.m:
            for x in row:
                if x != 0:
                    return self.m if x > 0 else la.scale(self.m, Fraction(-1))
        raise GroupError("zero matrix")  # unreachable: det = 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        left, right = self.__dict__.get("_inv"), other.__dict__.get("_inv")
        # only the identity carries an empty inverse (see identity_g)
        if left == ():
            return other
        if right == ():
            return self
        return _trusted(
            la.matmul(self.m, other.m),
            None if left is None or right is None else right + left,
        )

    def inverse(self) -> "GroupMatrix":
        """g⁻¹, from the known factors of the inverse when there are any and
        by fraction-free elimination otherwise.  Kept on matrices the library
        built, never on the caller's."""
        inv = self.__dict__.get("_inv")
        if inv is None:
            m = la.inverse(self.m)
        else:
            m = reduce(la.matmul, inv) if inv else la.identity(self.n)
        if "_inv" in self.__dict__:
            self.__dict__["_inv"] = (m,)
        return _trusted(m, (self.m,))

    @property
    def T(self) -> "GroupMatrix":
        """ψ: the antiautomorphism fixing T and swapping x_i(a) with y_i(a)."""
        inv = self.__dict__.get("_inv")
        return _trusted(
            la.transpose(self.m),
            None if inv is None else tuple(la.transpose(f) for f in reversed(inv)),
        )

    def is_identity(self) -> bool:
        return self == identity_g(self.n)

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.m
        )
        return f"G[{rows}]"


def _trusted(m: Matrix, inv: tuple[Matrix, ...] | None = None) -> GroupMatrix:
    """A GroupMatrix for a square det-1 matrix the library built: skips the
    ``__post_init__`` check.  inv holds matrices whose product is its
    inverse (none for the identity), or None when the inverse is unknown."""
    g = object.__new__(GroupMatrix)
    g.__dict__.update(m=m, _inv=inv)
    return g


def _diagonal(diag: Sequence[Fraction]) -> GroupMatrix:
    """The diagonal group element with the given nonzero entries, product 1."""
    n = len(diag)
    zero = Fraction(0)

    def build(values):
        return tuple(
            tuple(values[i] if i == j else zero for j in range(n)) for i in range(n)
        )

    return _trusted(build(diag), (build([1 / d for d in diag]),))


def identity_g(n: int) -> GroupMatrix:
    return _trusted(la.identity(n), ())


def generator_x(n: int, i: int, a) -> GroupMatrix:
    if not 1 <= i <= n - 1:
        raise GroupError(f"generator index {i} out of range for n={n}")
    a = frac(a)

    def build(value):
        rows = [list(row) for row in la.identity(n)]
        rows[i - 1][i] = value
        return tuple(tuple(row) for row in rows)

    return _trusted(build(a), (build(-a),))


def generator_y(n: int, i: int, a) -> GroupMatrix:
    return generator_x(n, i, a).T


def torus(values: Sequence) -> GroupMatrix:
    """Product of simple coroots α_i^∨(a_i): diag(a_1, a_2/a_1, …, 1/a_{n-1})."""
    vals = [frac(v) for v in values]
    if any(v == 0 for v in vals):
        raise GroupError("zero torus coordinate")
    diag = []
    prev = Fraction(1)
    for v in vals:
        diag.append(v / prev)
        prev = v
    diag.append(1 / prev)
    return _diagonal(diag)


def sdot(n: int, i: int) -> GroupMatrix:
    """ṡ_i = x_i(-1) y_i(1) x_i(-1), a signed permutation matrix."""
    if not 1 <= i <= n - 1:
        raise GroupError(f"generator index {i} out of range for n={n}")
    return wdot(simple_reflection(n, i))


def wdot(w: WeylElement) -> GroupMatrix:
    """ẇ = ṡ_{i_1}···ṡ_{i_l} for any reduced word of w (built in closed form)."""
    return _signed_permutation(w.perm)


@lru_cache(maxsize=None)
def _signed_permutation(perm: tuple[int, ...]) -> GroupMatrix:
    """The matrix with entry (-1)^#{i<j : w(i) > w(j)} at (w(j), j), zero
    elsewhere.  Shared between callers: GroupMatrix is immutable."""
    n = len(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, wj in enumerate(perm):
        flips = sum(1 for wi in perm[:j] if wi > wj)
        rows[wj - 1][j] = Fraction(-1 if flips % 2 else 1)
    m = tuple(tuple(row) for row in rows)
    return _trusted(m, (la.transpose(m),))


def psi(g: GroupMatrix) -> GroupMatrix:
    return g.T


# ---------------------------------------------------------------------------
# factorization maps

def pi_factor(g: GroupMatrix) -> tuple[GroupMatrix, GroupMatrix, GroupMatrix]:
    """g = u·t·u' with u lower unipotent, t in T, u' upper unipotent.

    Defined on the open cell B^-·B^+ (all leading principal minors nonzero);
    raises FactorizationError outside it.
    """
    l, d, u = la.ldu(g.m)
    return _trusted(l), _diagonal([d[i][i] for i in range(g.n)]), _trusted(u)


def pi_T(g: GroupMatrix) -> GroupMatrix:
    return pi_factor(g)[1]


def pi_Uminus(g: GroupMatrix) -> GroupMatrix:
    return pi_factor(g)[0]


def pi_Uplus(g: GroupMatrix) -> GroupMatrix:
    return pi_factor(g)[2]


def _block_diag_part(m: Matrix, J: ParabolicSubset) -> Matrix:
    blocks = J.blocks0()
    lookup = {i: k for k, blk in enumerate(blocks) for i in blk}
    n = len(m)
    return tuple(
        tuple(
            m[i][j] if lookup[i] == lookup[j] else Fraction(0) for j in range(n)
        )
        for i in range(n)
    )


def pi_UplusJ(g: GroupMatrix, J: ParabolicSubset) -> GroupMatrix:
    """U^+_J-component of g under B^-B^+ ≅ U^-×T×'U^+_J×U^+_J.

    On U^+ this is the homomorphism keeping x_i(a) for i ∈ J and killing the
    rest; concretely the block-diagonal part of the upper unipotent factor.
    """
    u = pi_Uplus(g)
    return _trusted(_block_diag_part(u.m, J))


def pi_UminusJ(u: GroupMatrix, J: ParabolicSubset) -> GroupMatrix:
    """Mirror of pi_UplusJ for lower unipotent input."""
    if not la.is_lower_triangular(u.m):
        raise GroupError("pi_UminusJ expects a lower unipotent argument")
    return _trusted(_block_diag_part(u.m, J))


# ---------------------------------------------------------------------------
# flags and parabolic subgroups

@dataclass(frozen=True, eq=False)
class FlagPoint:
    """Borel subgroup ^g B^+, stored by the conjugator g."""

    g: GroupMatrix

    @property
    def n(self) -> int:
        return self.g.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagPoint):
            return NotImplemented
        return la.is_upper_triangular((self.g.inverse() @ other.g).m)

    __hash__ = None  # equality is coset equality; no canonical form to hash

    def conjugate(self, h: GroupMatrix) -> "FlagPoint":
        return FlagPoint(h @ self.g)


def borel_plus(n: int) -> FlagPoint:
    return FlagPoint(identity_g(n))


def borel_minus(n: int) -> FlagPoint:
    return FlagPoint(wdot(longest_w(n)))


@dataclass(frozen=True, eq=False)
class ParabolicPoint:
    """Parabolic subgroup conjugate to P_J (standard side) or Q_J (opposite).

    P_J is block upper triangular for the J-blocks and has abstract type J;
    Q_J is block lower triangular and has abstract type J*.
    """

    J: ParabolicSubset
    g: GroupMatrix
    opposite: bool = False

    @property
    def n(self) -> int:
        return self.J.n

    def _member(self, h: GroupMatrix) -> bool:
        blocks = self.J.blocks0()
        if self.opposite:
            return la.is_block_lower(h.m, blocks)
        return la.is_block_upper(h.m, blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParabolicPoint):
            return NotImplemented
        if self.J != other.J or self.opposite != other.opposite:
            return False
        return self._member(self.g.inverse() @ other.g)

    __hash__ = None  # equality is coset equality; no canonical form to hash

    def conjugate(self, h: GroupMatrix) -> "ParabolicPoint":
        return ParabolicPoint(self.J, h @ self.g, self.opposite)


def standard_parabolic(J: ParabolicSubset) -> ParabolicPoint:
    return ParabolicPoint(J, identity_g(J.n), opposite=False)


def opposite_parabolic(J: ParabolicSubset) -> ParabolicPoint:
    return ParabolicPoint(J, identity_g(J.n), opposite=True)


# ---------------------------------------------------------------------------
# relative position

def _southwest_ranks(m: Matrix) -> list[list[int]]:
    n = len(m)
    r = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sub = la.submatrix(m, range(i - 1, n), range(j))
            r[i][j] = la.rank(sub)
    return r


def bruhat_cell(g: GroupMatrix) -> WeylElement:
    """The w with g ∈ B^+ ẇ B^+, from the lower-left rank profile."""
    n = g.n
    r = _southwest_ranks(g.m)
    perm = [0] * n
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            jump = r[i][j] - r[i + 1][j] - r[i][j - 1] + r[i + 1][j - 1]
            if jump == 1:
                perm[j - 1] = i
                break
        else:
            raise GroupError("rank profile is not a permutation (singular input?)")
    return WeylElement(tuple(perm))


def bruhat_position(b1: FlagPoint, b2: FlagPoint) -> WeylElement:
    return bruhat_cell(b1.g.inverse() @ b2.g)


# ---------------------------------------------------------------------------
# associated Borel and opposedness

def _bruhat_left(m: Matrix) -> tuple[Matrix, Matrix, WeylElement]:
    """(b, b⁻¹, w) with b upper unipotent and m ∈ b·ẇ·B^+, for invertible m.

    Column by column, the lowest nonzero row not yet used is the pivot and
    clears the unused rows above it; b holds the multipliers, which are the
    entries of the inverse row operations, and b⁻¹ is the row operations
    applied to the identity.
    """
    n = len(m)
    a = [list(row) for row in m]
    b = [list(row) for row in la.identity(n)]
    e = [list(row) for row in la.identity(n)]
    perm = []
    unused = list(range(n))
    for j in range(n):
        p = next(i for i in reversed(unused) if a[i][j] != 0)
        unused.remove(p)
        perm.append(p + 1)
        for i in unused:
            if i > p:
                break
            f = a[i][j] / a[p][j]
            if f:
                b[i][p] = f
                for k in range(j, n):
                    a[i][k] -= f * a[p][k]
                # e is upper unipotent: row p is 0 left of column p, 1 at p
                e[i][p] -= f
                for k in range(p + 1, n):
                    if e[p][k]:
                        e[i][k] -= f * e[p][k]
    return tuple(map(tuple, b)), tuple(map(tuple, e)), WeylElement(tuple(perm))


def associated_borel(P: ParabolicPoint, B: FlagPoint) -> FlagPoint:
    """(P ∩ B)·U_P: the unique Borel inside P with pos(B, ·) ∈ W^J.

    With P = ^g P_J and g⁻¹·B.g ∈ b·ẇ·B^+, the Borels ^{g·b·ẋ}B^+ with x in
    W_J lie in P at position w⁻¹x from B; x = w·m for m the shortest element
    of w⁻¹W_J.  The opposite side uses Q_J = ẇ₀·P_{J*}·ẇ₀⁻¹.
    """
    J, g = P.J, P.g
    if P.opposite:
        J, g = J.star(), g @ wdot(longest_w(P.n))
    b, b_inv, w = _bruhat_left((g.inverse() @ B.g).m)
    x = w * J.min_rep(w.inverse())
    return FlagPoint(g @ _trusted(b, (b_inv,)) @ wdot(x))


def opposed(P: ParabolicPoint, Q: ParabolicPoint) -> bool:
    """True iff P ∩ Q is a common Levi, i.e. iff P.g⁻¹·Q.g has the two-sided
    block factorization u_p·l·u_q, whose Levi part l one trailing
    Schur-complement pass reads off (la.levi_part)."""
    if P.opposite or not Q.opposite or P.J != Q.J:
        raise GroupError("opposed() expects (type-J standard, type-J* opposite) pair")
    try:
        la.levi_part((P.g.inverse() @ Q.g).m, P.J.blocks0())
    except FactorizationError:
        return False
    return True
