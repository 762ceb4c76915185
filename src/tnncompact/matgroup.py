"""Exact matrix model of the adjoint group of type A_{n-1}.

Group elements are determinant-1 rational n×n matrices with projective
equality: g ~ ζg for the rational n-th roots of unity ζ, which means ±1
for even n and only +1 for odd n.  The pinning is the standard one,
x_i(a) = 1 + a·E_{i,i+1}, y_i(a) its transpose, and ψ (the positivity
antiautomorphism) is literally matrix transpose.

A group element g is stored as one primitive integer matrix M (content
1) with det M = dⁿ > 0, so that g = M/d; M is unique for g, and d is
no stored state.  The library computes with M alone: a product is the
primitive part of the integer product; g⁻¹ is the primitive part of the
integer adjugate of M, from one fraction-free elimination; a transpose
transposes M.  Every sign and projective test reads M directly, since a
positive scalar changes no sign of a minor and no projective point, and
every position (Bruhat cells, triangular zero patterns) reads it too,
since no scalar moves a zero.  The rational entries ``m`` are a Fraction
view, built when a value leaves the package (JSON, ``repr``, the tests):
d is then the exact integer n-th root of det M.

Exact entries (ints and Fractions, never floats) and det = 1 are checked
once, where a matrix enters: the public ``GroupMatrix`` constructor, which
JSON readers, the CLI and callers go through, clears the denominators of
m once (``linalg._integer_form``: M = d·m) and checks det M = dⁿ.  Every
matrix this module builds itself (products, inverses, transposes, words,
Weyl lifts, factorization parts) is a group element by construction and
goes through ``_trusted``, which checks nothing.

Every group element built from coordinates, other than the identity and
the Weyl lifts, comes from one word evaluator: a word of steps x_i(a),
y_i(a), ṡ_i and torus elements is multiplied out by one integer column
operation per step.  A torus element is a one-step word, and the samplers
and charts of ``tnn`` are longer ones.

The Weyl lifts and the identity are signed permutation matrices that carry
their permutation and signs: a product with one, on either side, moves and
negates rows or columns of M, and ẇ⁻¹ = ẇᵀ is the lift of the inverse
permutation.  The identity is marked by a flag on its lift, so products
with it return the other factor.  A word of ṡ_i steps alone (a chart with
no free step) is built as a lift, and so is the trivial upper factor of a
Bruhat elimination.  Every other matrix is inverted the first time its
inverse is asked for, and the inverse is kept on the matrix.

A flag or a parabolic subgroup is its conjugator: the Borel ^gB^+ and the
parabolic ^gP_J are the group element g, and the opposite parabolic ^gQ_J
is ^{g·ẇ₀}P_{J*}.  Relative position is read off one Bruhat elimination,
and the associated Borel of a parabolic, with its position, comes from one
more plus coset arithmetic in W; the eliminated element keeps that
elimination, as it keeps its inverse.  All of it is exact and
tolerance-free.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate, chain
from math import gcd, lcm
from operator import mul
from typing import Sequence

from . import linalg as la
from .linalg import Matrix, frac
from .weyl import ParabolicSubset, WeylElement, _trusted_w, longest_w, simple_reflection

IntMatrix = tuple[tuple[int, ...], ...]

_RATIONAL = {int, Fraction}


class GroupError(Exception):
    pass


class GroupMatrix:
    """Determinant-1 rational matrix, equal to its n-th-root-of-unity
    rescalings, stored as its primitive integer matrix ``M`` (see the
    module docstring).

    The constructor takes the rational entries m and checks that they form
    a nonempty square of ints or Fractions with det = 1; build a matrix
    through it whenever the entries come from outside the library.  It
    keeps M = d·m only, d the lcm of m's denominators: a prime of the
    content of M would divide det M = dⁿ, but not every entry of d·m.
    What is computed from g later is a cached property of g: ``m``, the
    Fraction view M/d; the inverse ``_inv``; and the Bruhat elimination
    (b, w) with g ∈ b·ẇ·B^+ (``_bruhat``, which ``associated_borel``
    reads).  A Weyl lift is shared between callers (``_lift``), so what it
    keeps outlives the call that computed it.
    """

    def __init__(self, m: Matrix):
        self.__post_init__(m)

    def __post_init__(self, m: Matrix):
        n = len(m)
        if not n or any(len(row) != n for row in m):
            raise GroupError("group matrix must be square and nonempty")
        if any(type(x) not in _RATIONAL for row in m for x in row):
            raise GroupError("group matrix entries must be ints or Fractions")
        a, d = la._integer_form(m)
        if la.det(a) != d**n:
            raise GroupError("group matrix must have determinant 1")
        self.__dict__["M"] = tuple(map(tuple, a))

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupMatrix is immutable; cannot set {name}")

    @cached_property
    def m(self) -> Matrix:
        """The entries M/d as Fractions, d = ⁿ√det M by Newton steps on ints
        down from 2^⌈bits/n⌉ ≥ d: exact at any size, where a float root
        fails past 2^1024."""
        det, n = abs(la.det(self.M).numerator), self.n
        d = 1 << -(-det.bit_length() // n)
        while (s := ((n - 1) * d + det // d ** (n - 1)) // n) < d:
            d = s
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.M)

    @property
    def n(self) -> int:
        return len(self.M)

    def canonical(self) -> IntMatrix:
        """M, with the sign fixed by first nonzero entry > 0 when a sign flip
        is allowed: one key for the whole class of g.  An all-zero M, which
        only an unchecked matrix can have, is its own key."""
        M = self.M
        if len(M) % 2 == 1 or next((x for x in chain.from_iterable(M) if x), 1) > 0:
            return M
        return _negated(M)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        left, right = self.__dict__, other.__dict__
        a, b = self.M, other.M
        if len(a) != len(b):
            raise ValueError(f"shape mismatch: {len(a)}×{len(a)} @ {len(b)}×{len(b)}")
        if "_one" in left:
            return other
        if "_one" in right:
            return self
        if "_lift" in left:
            rows = left["_lift"][0]
            if "_lift" in right:  # row i of ẇ·ẋ is ±row c of ẋ
                then = right["_lift"][0]
                return _lift(tuple((then[c][0], s * then[c][1]) for c, s in rows))
            # row i of ẇ·b is ±row c of b
            return _trusted(tuple(b[c] if s > 0 else tuple(-x for x in b[c]) for c, s in rows))
        if "_lift" in right:
            # column k of a·ẇ is ±column r of a
            cols = right["_lift"][1]
            return _trusted(tuple(tuple(x[r] if s > 0 else -x[r] for r, s in cols) for x in a))
        return _reduced(la._product(a, b))

    def inverse(self) -> "GroupMatrix":
        """g⁻¹: a Weyl lift's is the lift of its transpose; any other matrix,
        the caller's too, is inverted once and keeps the result (``_inv``)."""
        return self._inv

    @cached_property
    def _inv(self) -> "GroupMatrix":
        """g⁻¹ = d·M⁻¹ = adj(M)/d^{n-1} (det M = dⁿ): the primitive part of
        adj(M), from one fraction-free elimination."""
        if "_lift" in self.__dict__:
            return _lift(self._lift[1])
        adj, _ = la._adjugate([list(row) for row in self.M])
        return _reduced(tuple(map(tuple, adj)))

    @cached_property
    def _bruhat(self) -> tuple["GroupMatrix", WeylElement]:
        return _bruhat_left(self.M)

    @property
    def T(self) -> "GroupMatrix":
        """ψ: the antiautomorphism fixing T and swapping x_i(a) with y_i(a)."""
        if "_lift" in self.__dict__:
            return _lift(self._lift[1])
        return _trusted(tuple(zip(*self.M)))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(map(str, row)) for row in self.m)
        return f"G[{rows}]"


def _negated(M: IntMatrix) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in M)


def _trusted(M: IntMatrix) -> GroupMatrix:
    """The GroupMatrix of a square primitive integer M with det M = dⁿ > 0
    that the library built: skips the ``__post_init__`` check."""
    g = object.__new__(GroupMatrix)
    g.__dict__["M"] = M
    return g


def _reduced(M: IntMatrix) -> GroupMatrix:
    """The group element of an integer M with det M a positive n-th power:
    M divided by its content, taken row by row."""
    c = gcd(*[gcd(*row) for row in M])
    return _trusted(M if c == 1 else tuple(tuple(x // c for x in row) for row in M))


@cache
def _lift(rows: tuple[tuple[int, int], ...]) -> GroupMatrix:
    """The signed permutation matrix with entry s at (i, c) for (c, s) =
    rows[i], one shared element per matrix.

    It carries (rows, cols) with cols[c] = (i, s), so that a product with it
    permutes and negates rows or columns, and its inverse is its transpose,
    the lift of cols.  The identity also carries the flag ``_one``, so that
    products with it return the other factor.
    """
    n = len(rows)
    cols: list = [None] * n
    for i, (c, s) in enumerate(rows):
        cols[c] = (i, s)
    g = _trusted(tuple(tuple(s if k == c else 0 for k in range(n)) for c, s in rows))
    g.__dict__["_lift"] = (rows, tuple(cols))
    if all(c == i and s == 1 for i, (c, s) in enumerate(rows)):
        g.__dict__["_one"] = True
    return g


def identity_g(n: int) -> GroupMatrix:
    return _lift(tuple((i, 1) for i in range(n)))


# ---------------------------------------------------------------------------
# words
#
# A word is a list of steps (kind, i, a): ("x", i, a) is x_i(a), ("y", i, a)
# is y_i(a), ("s", i, None) is ṡ_i and ("t", 0, coords) is the torus element
# with simple-coroot coordinates coords, as in torus.  Coordinates are ints
# or Fractions.

def _word_element(n: int, steps) -> GroupMatrix:
    """The group element of a word, by one integer column operation per step.

    Column k is kept as integers over a denominator of its own, reduced
    (``_reduced_column``), so a step touches only the column it changes;
    the columns go over one denominator, their lcm, at the end, and M is
    the columns' integers over it, primitive since det = 1.  Zero steps
    are skipped.  Without its unit torus steps, a word of ṡ_i steps alone
    is a Weyl lift (the identity when empty).
    """
    steps = [st for st in steps if st[0] != "t" or any(c != 1 for c in st[2])]
    if all(kind == "s" for kind, _, _ in steps):
        return reduce(GroupMatrix.__matmul__, (sdot(n, i) for _, i, _ in steps), identity_g(n))
    cols = [[int(i == k) for i in range(n)] for k in range(n)]
    dens = [1] * n
    for kind, i, a in steps:
        if kind == "s":  # ṡ_i has 1 at (i+1, i) and −1 at (i, i+1)
            cols[i - 1], cols[i] = cols[i], [-x for x in cols[i - 1]]
            dens[i - 1], dens[i] = dens[i], dens[i - 1]
        elif kind == "t":  # column k times a_k/a_{k-1}, with a_0 = a_n = 1
            r = [(1, 1), *(c.as_integer_ratio() for c in a), (1, 1)]
            for k, ((p, q), (p0, q0)) in enumerate(zip(r[1:], r)):
                if p * q0 != q * p0:
                    cols[k], dens[k] = _reduced_column(
                        [x * p * q0 for x in cols[k]], dens[k] * q * p0
                    )
        else:  # x_i: column i += a·column i-1; y_i: column i-1 += a·column i
            p, q = a.as_integer_ratio()
            if p:
                t, u = (i, i - 1) if kind == "x" else (i - 1, i)
                l = lcm(dens[t], q * dens[u])
                f, h = l // dens[t], p * (l // (q * dens[u]))
                cols[t], dens[t] = _reduced_column(
                    [x * f + y * h for x, y in zip(cols[t], cols[u])], l
                )
    d = lcm(*dens)
    return _trusted(tuple(zip(*([x * (d // e) for x in c] for c, e in zip(cols, dens)))))


def _reduced_column(col: list[int], den: int) -> tuple[list[int], int]:
    """col/den with a positive denominator and no content shared with it:
    then the lcm of the column denominators shares no content with the
    columns over it either."""
    if den < 0:
        col, den = [-x for x in col], -den
    c = gcd(den, *col)
    if c > 1:
        col, den = [x // c for x in col], den // c
    return col, den


def torus(values: Sequence) -> GroupMatrix:
    """Product of simple coroots α_i^∨(a_i): diag(a_1, a_2/a_1, …, 1/a_{n-1})."""
    vals = tuple(frac(v) for v in values)
    if any(v == 0 for v in vals):
        raise GroupError("zero torus coordinate")
    return _word_element(len(vals) + 1, [("t", 0, vals)])


def sdot(n: int, i: int) -> GroupMatrix:
    """ṡ_i = x_i(-1) y_i(1) x_i(-1), a signed permutation matrix."""
    if not 1 <= i <= n - 1:
        raise GroupError(f"generator index {i} out of range for n={n}")
    return wdot(simple_reflection(n, i))


def wdot(w: WeylElement) -> GroupMatrix:
    """ẇ = ṡ_{i_1}···ṡ_{i_l} for any reduced word of w (built in closed form)."""
    return _signed_permutation(w.perm)


@cache
def _signed_permutation(perm: tuple[int, ...]) -> GroupMatrix:
    """The lift with entry (-1)^#{i<j : w(i) > w(j)} at (w(j), j), zero
    elsewhere: ``_lift``'s shared element, kept here too only to save the
    sign count of each ``wdot`` call."""
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
    lower, upper = (_trusted(tuple(map(tuple, la._integer_form(x)[0]))) for x in (l, u))
    return lower, torus(accumulate(pivots, mul)), upper


# ---------------------------------------------------------------------------
# flags and relative position: the position of ^bB^+ from ^aB^+ is
# bruhat_cell(a⁻¹·b)

def borel_minus(n: int) -> GroupMatrix:
    """ẇ₀, the conjugator of B^- = ^{ẇ₀}B^+: the one shared lift of w₀."""
    return wdot(longest_w(n))


def bruhat_cell(g: GroupMatrix) -> WeylElement:
    """The w with g ∈ B^+ẇB^+, read off one Bruhat elimination of M
    (``_bruhat_left``) after one rank of M rejects singular input.

    The rank cannot fail on a matrix the constructor or the library built
    (det M ≠ 0), only on an unchecked one; it stays while the
    benchmark's tracer test pins a rank per ``classify``."""
    if la.rank(g.M) < g.n:
        raise GroupError("singular matrix has no Bruhat cell")
    return _bruhat_left(g.M, factors=False)[1]


# ---------------------------------------------------------------------------
# associated Borel

def _bruhat_left(m: IntMatrix, factors: bool = True) -> tuple[GroupMatrix | None, WeylElement]:
    """(b, w) with b upper unipotent and m ∈ b·ẇ·B^+, for an invertible
    integer m; b is the group element, the identity when no row operation
    was needed.

    Column by column, the lowest nonzero row not yet used is the pivot and
    clears the unused rows above it; b holds the multipliers, which are the
    entries of the inverse row operations.  Row i is kept as integers a[i]
    over a scale s[i]: clearing with pivot row p replaces a[i] by
    x·a[i] − y·a[p], for x and y the entries in the pivot column, and s[i]
    by x·s[i], so no Fraction is built and zero tests are exact.  A scalar
    multiple of m has the same w and the same b.  Without factors, only w
    is read off and b is returned as None.
    """
    n = len(m)
    a = [list(row) for row in m]
    s = [1] * n
    mult = []  # (i, p, numerator, denominator) of the entry b[i][p]
    perm = []
    unused = list(range(n))
    for j in range(n):
        p = next(i for i in reversed(unused) if a[i][j] != 0)
        unused.remove(p)
        perm.append(p + 1)
        ap, x = a[p], a[p][j]
        for i in unused:
            if i > p:
                break
            y = a[i][j]
            if y:  # columns up to j are never read again
                a[i] = [x * u - y * v for u, v in zip(a[i], ap)]
                if factors:
                    mult.append((i, p, y * s[p], x * s[i]))
                    s[i] *= x
    w = _trusted_w(tuple(perm))
    if not factors:
        return None, w
    if not mult:
        return identity_g(n), w
    d = lcm(*(abs(q) for *_, q in mult))
    b = [[d if r == c else 0 for c in range(n)] for r in range(n)]
    for i, p, num, q in mult:
        b[i][p] = num * d // q
    return _reduced(tuple(map(tuple, b))), w


def associated_borel(
    J: ParabolicSubset, g: GroupMatrix, h: GroupMatrix
) -> tuple[GroupMatrix, WeylElement]:
    """(a, u): the conjugator a of (P ∩ B)·U_P for P = ^gP_J and B = ^hB^+,
    the unique Borel inside P at a position from B in W^J, and that
    position u.

    With g⁻¹·h ∈ b·ẇ·B^+, the Borels ^{g·b·ẋ}B^+ with x in W_J lie in P at
    position w⁻¹x from B; x = w·u for u the shortest element of w⁻¹W_J,
    and a = g·b·ẋ.  Then h⁻¹·a ∈ B^+·ẇ⁻¹ẋ = B^+·u̇·T, so u is read off the
    same elimination.  The elimination of g⁻¹·h is kept on that matrix
    (``GroupMatrix._bruhat``), so a later call that eliminates the same
    element reads it.  The opposite parabolic ^gQ_J is ^{g·ẇ₀}P_{J*}.
    """
    b, w = (g.inverse() @ h)._bruhat
    u = J.min_rep(w.inverse())
    return g @ b @ wdot(w * u), u
