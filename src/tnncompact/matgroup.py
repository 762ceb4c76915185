"""Exact matrix model of the adjoint group of type A_{n-1}.

Group elements are determinant-1 rational n×n matrices with projective
equality: M ~ ζM for the rational n-th roots of unity ζ, which means ±1
for even n and only +1 for odd n.  The pinning is the standard one,
x_i(a) = 1 + a·E_{i,i+1}, y_i(a) its transpose, and ψ (the positivity
antiautomorphism) is literally matrix transpose.

det = 1 and exact entries (ints and Fractions, never floats) are checked
once, where a matrix enters: the public ``GroupMatrix`` constructor, which
JSON readers, the CLI and callers go through.  Every matrix this module
builds itself (products, inverses, transposes, words, Weyl lifts,
factorization parts) is a group element by construction and goes through
``_trusted``, which checks nothing.

Every group element built from coordinates, other than the identity and
the Weyl lifts, comes from one word evaluator: a word of steps x_i(a),
y_i(a), ṡ_i and torus elements is multiplied out by one column operation
per step, over any ring.  The generators and tori are one-step words, and
the samplers and charts of ``tnn`` are longer ones.

The Weyl lifts and the identity are signed permutation matrices that carry
their permutation and signs: a product with one, on either side, moves and
negates rows or columns with no Fraction product, and ẇ⁻¹ = ẇᵀ is the lift
of the inverse permutation.  The identity is marked by a flag on its lift,
so products with it return the other factor.  A word of ṡ_i steps alone (a
chart with no free step) is built as a lift, and so is the trivial upper
factor of a Bruhat elimination.  Every other matrix is inverted by one
fraction-free elimination the first time its inverse is asked for; the
inverse is kept on the matrix and linked back to it.

Flags and parabolic subgroups are stored by a conjugating group element.
Relative position is read off one Bruhat elimination; the associated
Borel of a parabolic comes from one more plus coset arithmetic in W, and
opposedness from whether the Levi part of the two-sided block
factorization exists, read off one Schur-complement pass from the trailing
block to the leading one.  All of it is exact and tolerance-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import mul
from typing import Sequence

from . import linalg as la
from .linalg import FactorizationError, Matrix, frac
from .weyl import ParabolicSubset, WeylElement, _trusted_w, longest_w, simple_reflection


class GroupError(Exception):
    pass


@dataclass(frozen=True)
class GroupMatrix:
    """Determinant-1 rational matrix, equal to its n-th-root-of-unity rescalings.

    The constructor checks squareness, entry types (int or Fraction) and
    det = 1; build a matrix through it whenever the entries come from
    outside the library.
    """

    m: Matrix

    def __post_init__(self):
        n, nc = la.dims(self.m)
        if n != nc:
            raise GroupError("group matrix must be square")
        if any(type(x) not in la._RATIONAL for row in self.m for x in row):
            raise GroupError("group matrix entries must be ints or Fractions")
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
        d, e = self.__dict__, other.__dict__
        a, b = self.m, other.m
        # a size mismatch falls through to la.matmul's ValueError
        if len(a) != len(b):
            m = la.matmul(a, b)
        elif "_one" in d:
            return other
        elif "_one" in e:
            return self
        elif "_lift" in d:
            rows = d["_lift"][0]
            if "_lift" in e:  # row i of ẇ·ẋ is ±row c of ẋ
                then = e["_lift"][0]
                return _lift(tuple((then[c][0], s * then[c][1]) for c, s in rows))
            # row i of ẇ·b is ±row c of b
            m = tuple(b[c] if s > 0 else tuple(-x for x in b[c]) for c, s in rows)
        elif "_lift" in e:
            # column k of a·ẇ is ±column r of a
            cols = e["_lift"][1]
            m = tuple(tuple(row[r] if s > 0 else -row[r] for r, s in cols) for row in a)
        else:
            m = la.matmul(a, b)
        return _trusted(m)

    def inverse(self) -> "GroupMatrix":
        """g⁻¹: a Weyl lift's is the lift of its transpose; any other matrix,
        the caller's too, is inverted by one fraction-free elimination the
        first time it is asked, and the result is kept on g and linked
        back to it."""
        d = self.__dict__
        if "_lift" in d:
            return _lift(d["_lift"][1])
        h = d.get("_inv")
        if h is None:
            h = d["_inv"] = _trusted(la.inverse(self.m))
            h.__dict__["_inv"] = self
        return h

    @property
    def T(self) -> "GroupMatrix":
        """ψ: the antiautomorphism fixing T and swapping x_i(a) with y_i(a)."""
        d = self.__dict__
        if "_lift" in d:
            return _lift(d["_lift"][1])
        return _trusted(la.transpose(self.m))

    def is_identity(self) -> bool:
        return self == identity_g(self.n)

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.m
        )
        return f"G[{rows}]"


def _trusted(m: Matrix) -> GroupMatrix:
    """A GroupMatrix for a square det-1 matrix the library built: skips the
    ``__post_init__`` check."""
    g = object.__new__(GroupMatrix)
    g.__dict__["m"] = m
    return g


_LIFTS: dict[tuple[tuple[int, int], ...], GroupMatrix] = {}


def _lift(rows: tuple[tuple[int, int], ...]) -> GroupMatrix:
    """The signed permutation matrix with entry s at (i, c) for (c, s) =
    rows[i], one shared element per matrix.

    It carries (rows, cols) with cols[c] = (i, s), so that a product with it
    permutes and negates rows or columns, and its inverse is its transpose,
    the lift of cols.  The identity also carries the flag ``_one``, so that
    products with it return the other factor.
    """
    g = _LIFTS.get(rows)
    if g is None:
        n = len(rows)
        cols: list = [None] * n
        for i, (c, s) in enumerate(rows):
            cols[c] = (i, s)
        entries = {1: Fraction(1), -1: Fraction(-1)}
        zero = Fraction(0)
        g = _LIFTS[rows] = _trusted(
            tuple(tuple(entries[s] if k == c else zero for k in range(n)) for c, s in rows)
        )
        g.__dict__["_lift"] = (rows, tuple(cols))
        if all(c == i and s == 1 for i, (c, s) in enumerate(rows)):
            g.__dict__["_one"] = True
    return g


def identity_g(n: int) -> GroupMatrix:
    return _lift(tuple((i, 1) for i in range(n)))


# ---------------------------------------------------------------------------
# words, evaluated over any ring
#
# A word is a list of steps (kind, i, a): ("x", i, a) is x_i(a), ("y", i, a)
# is y_i(a), ("s", i, None) is ṡ_i and ("t", 0, coords) is the torus element
# with simple-coroot coordinates coords, as in torus.

def _evaluate_word(n: int, steps, one) -> la.Matrix:
    """The product of the steps, by one column operation each.

    Only +, −, × and / are used, starting from the unit ``one``, so the
    entries may lie in any field: the library runs it over Fraction, and
    the tests' Jacobian oracle over dual numbers.  Zero entries are skipped.
    """
    zero = one - one
    m = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for kind, i, a in steps:
        if kind == "x":  # column i += a·column i-1
            for row in m:
                if row[i - 1]:
                    row[i] = row[i] + a * row[i - 1]
        elif kind == "y":  # column i-1 += a·column i
            for row in m:
                if row[i]:
                    row[i - 1] = row[i - 1] + a * row[i]
        elif kind == "s":  # ṡ_i has 1 at (i+1, i) and −1 at (i, i+1)
            for row in m:
                row[i - 1], row[i] = row[i], -row[i - 1]
        else:  # diag(a_1, a_2/a_1, …, 1/a_{n-1})
            for k, d in enumerate(c / p for c, p in zip([*a, one], [one, *a])):
                for row in m:
                    if row[k]:
                        row[k] = row[k] * d
    return tuple(tuple(row) for row in m)


def _word_element(n: int, steps) -> GroupMatrix:
    """The group element of a word of Fraction steps.

    Without its unit torus steps, a word of ṡ_i steps alone is a Weyl lift
    (the identity when empty).
    """
    steps = [st for st in steps if st[0] != "t" or any(c != 1 for c in st[2])]
    if all(kind == "s" for kind, _, _ in steps):
        return reduce(GroupMatrix.__matmul__, (sdot(n, i) for _, i, _ in steps), identity_g(n))
    return _trusted(_evaluate_word(n, steps, Fraction(1)))


def _check_index(n: int, i: int) -> None:
    if not 1 <= i <= n - 1:
        raise GroupError(f"generator index {i} out of range for n={n}")


def generator_x(n: int, i: int, a) -> GroupMatrix:
    _check_index(n, i)
    return _word_element(n, [("x", i, frac(a))])


def generator_y(n: int, i: int, a) -> GroupMatrix:
    _check_index(n, i)
    return _word_element(n, [("y", i, frac(a))])


def torus(values: Sequence) -> GroupMatrix:
    """Product of simple coroots α_i^∨(a_i): diag(a_1, a_2/a_1, …, 1/a_{n-1})."""
    vals = tuple(frac(v) for v in values)
    if any(v == 0 for v in vals):
        raise GroupError("zero torus coordinate")
    return _word_element(len(vals) + 1, [("t", 0, vals)])


def sdot(n: int, i: int) -> GroupMatrix:
    """ṡ_i = x_i(-1) y_i(1) x_i(-1), a signed permutation matrix."""
    _check_index(n, i)
    return wdot(simple_reflection(n, i))


def wdot(w: WeylElement) -> GroupMatrix:
    """ẇ = ṡ_{i_1}···ṡ_{i_l} for any reduced word of w (built in closed form)."""
    return _signed_permutation(w.perm)


@lru_cache(maxsize=None)
def _signed_permutation(perm: tuple[int, ...]) -> GroupMatrix:
    """The lift with entry (-1)^#{i<j : w(i) > w(j)} at (w(j), j), zero
    elsewhere.  ``_lift`` shares one element per signed permutation between
    callers (GroupMatrix is immutable); the cache here only saves the sign
    count on each ``wdot`` call, about twelve per sample and classify."""
    rows: list = [None] * len(perm)
    for j, wj in enumerate(perm):
        flips = sum(1 for wi in perm[:j] if wi > wj)
        rows[wj - 1] = (j, -1 if flips % 2 else 1)
    return _lift(tuple(rows))


# ---------------------------------------------------------------------------
# factorization maps

# Nothing in the package calls pi_factor; it stays while BENCHMARK.json
# names it as a per-layer metric.
def pi_factor(g: GroupMatrix) -> tuple[GroupMatrix, GroupMatrix, GroupMatrix]:
    """g = u·t·u' with u lower unipotent, t in T, u' upper unipotent.

    Defined on the open cell B^-·B^+ (all leading principal minors nonzero);
    raises FactorizationError outside it.  t is the torus element whose
    coordinates are the prefix products of the pivots.
    """
    l, d, u = la.ldu(g.m)
    pivots = (d[i][i] for i in range(g.n - 1))
    return _trusted(l), torus(accumulate(pivots, mul)), _trusted(u)


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
        if self.n != other.n:
            return False
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

def bruhat_cell(g: GroupMatrix) -> WeylElement:
    """The w with g ∈ B^+ẇB^+, read off one Bruhat elimination
    (``_bruhat_left``) after one rank of the whole matrix rejects singular
    input."""
    if la.rank(g.m) < g.n:
        raise GroupError("singular matrix has no Bruhat cell")
    return _bruhat_left(g.m, factors=False)[1]


def bruhat_position(b1: FlagPoint, b2: FlagPoint) -> WeylElement:
    return bruhat_cell(b1.g.inverse() @ b2.g)


# ---------------------------------------------------------------------------
# associated Borel and opposedness

def _bruhat_left(m: Matrix, factors: bool = True) -> tuple[Matrix, WeylElement]:
    """(b, w) with b upper unipotent and m ∈ b·ẇ·B^+, for invertible m.

    Column by column, the lowest nonzero row not yet used is the pivot and
    clears the unused rows above it; b holds the multipliers, which are the
    entries of the inverse row operations.  Without factors, only w is read
    off and b is returned as ().
    """
    n = len(m)
    a = [list(row) for row in m]
    if factors:
        b = [list(row) for row in la.identity(n)]
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
                for k in range(j + 1, n):
                    a[i][k] -= f * a[p][k]
                if factors:
                    b[i][p] = f
    return (tuple(map(tuple, b)) if factors else ()), _trusted_w(tuple(perm))


def associated_borel(P: ParabolicPoint, B: FlagPoint) -> FlagPoint:
    """(P ∩ B)·U_P: the unique Borel inside P with pos(B, ·) ∈ W^J.

    With P = ^g P_J and g⁻¹·B.g ∈ b·ẇ·B^+, the Borels ^{g·b·ẋ}B^+ with x in
    W_J lie in P at position w⁻¹x from B; x = w·m for m the shortest element
    of w⁻¹W_J.  The opposite side uses Q_J = ẇ₀·P_{J*}·ẇ₀⁻¹.
    """
    J, g = P.J, P.g
    if P.opposite:
        J, g = J.star(), g @ wdot(longest_w(P.n))
    b, w = _bruhat_left((g.inverse() @ B.g).m)
    x = w * J.min_rep(w.inverse())
    # b is unipotent, so diagonal only when no row operation was needed
    b = identity_g(P.n) if la.is_diagonal(b) else _trusted(b)
    return FlagPoint(g @ b @ wdot(x))


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
