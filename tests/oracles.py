"""Reference algorithms and hypothesis strategies shared by the tests.

The kernel references are the textbook definitions, written with ring
operations only (no division, no zero tests), so they apply unchanged to
Fraction, Laurent and Dual entries and stay independent of the library's
kernels; the one exception is the Gauss–Jordan inverse, which pivots on
Fractions where the library eliminates over the integers.  The
dual-number ring those references run on (``Dual``) is defined here: the
library itself computes over ℤ, ℚ and Laurent curves only.  The group
layer stores each element as its primitive integer matrix; its
references are the Fraction product it ran before (``rational_matmul``),
that inverse, and the column operations of its word evaluator run over
any ring (``evaluate_word``), which also give the Dual charts.  Its flag
and parabolic references, which take a parabolic as its type J, its
conjugator g and its side, decide those questions by subspaces and Lie
algebras, independently of the library's eliminations; the block zero
patterns of parabolics and Levi factors are tested here too.  The two-sided
block factorization u_p·l·u_q is built whole, as the leading block LDU of
the matrix conjugated by the reversal permutation, and ``la.levi_part``
must match its middle factor.  The certificate references are the
library's sign and projective tests as they ran over Fractions before the
library cleared denominators: every minor of the rational matrix, each by
Laplace expansion and not by the library's minor ladder, the fundamental
tuple of rational images, and the torus-limit check on
Laurent polynomials with Fraction coefficients; the Cauchy–Binet check
runs on the row and column scalings of ``integer_pairs``, which the
library used before it read integer matrices directly.  The reference
for the fundamental tuple's kernel is the compound pass the library ran before it
built only the minors D_k keeps: two full compound ladders, and the kept
columns of one times the kept rows of the other
(``compound_pass_images``).  ``torus_limit`` returns
its closed form unchecked; the reference that the closed form is the limit
is the Cauchy–Binet check, which keeps the subsets of largest curve
weight, and its own reference is the curve itself, built entry by entry as
a Laurent matrix, run through the compound ladder and normalized by its
lowest valuation.  The reference for relative position is the whole southwest rank profile, n² ranks, where the
library reads w off one Bruhat elimination.  The reference for the paper's (*) pair is the dense
product the library ran before it read the pair off the fundamental tuple:
full compounds through a dense 0/1 projector, whose kept basis vectors are
chosen by a block count of their own.  The reference for point equality
is the coset test the library ran before it compared fundamental tuples:
conjugators equal modulo P_J and Q_J, and Levi parts in one frame equal
modulo the center of L_J.  The reference for the projective key of a
matrix is the cross-multiplication ``proj_equal`` that the library ran
before it compared keys.  The references for the word evaluator are the
generator, Weyl-lift and torus matrices written out entry by entry and
multiplied row by column.  The reference for the lexicographically least
reduced word strips the least left descent of a WeylElement one letter at
a time, building one element per step; a second one is the adjacent-swap
sort of w⁻¹ that the library ran on every call before it kept one word
per element; the reference for a positive
subexpression's free steps is its list of stations, each step decided by
comparing lengths.  The reference for the Jacobian
rank check is the rank it took before it read tangent vectors modulo the
stabilizer: the chart over dual numbers, mapped into every fundamental
representation through compounds, with one gradient row per entry.
The pinning's generators x_i(a) and y_i(a), and a nonnegative sample of a
Levi factor, which the library itself never builds alone, are words of its
word evaluator here.  The 1-based J-blocks of a parabolic (``blocks``),
which the library reads only 0-based, are read off its kept blocks here.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from hypothesis import strategies as st

from tnncompact import linalg as la
from tnncompact.cells import _chart, _chart_words, dimension_of
from tnncompact.exterior import (
    _levi_weight_positions,
    compound,
    compounds,
    strictly_signed,
    subsets_colex,
)
from tnncompact.laurent import Laurent, lmat_limit
from tnncompact.matgroup import GroupError, _integer_form, _trusted, _word_element
from tnncompact.strata import _limit_images, fundamental_tuple
from tnncompact.tnn import (
    _double_cell_steps,
    double_cell_evaluate,
    mr_evaluate,
    rand_nonneg_fraction,
    rand_pos_fraction,
)
from tnncompact.weyl import WeylElement, lex_min_reduced_word, positive_subexpression, simple_reflection


@dataclass(frozen=True)
class Dual:
    """A forward-mode dual number over the rationals: a value and an exact
    gradient vector, so products and minors of Dual matrices propagate
    derivatives by the product rule and a Jacobian is an exact rational
    matrix.  The oracles run the library's ring-generic kernels on it."""

    val: Fraction
    grad: tuple[Fraction, ...]

    @staticmethod
    def const(x, nvars: int) -> "Dual":
        return Dual(la.frac(x), (Fraction(0),) * nvars)

    @staticmethod
    def var(x, index: int, nvars: int) -> "Dual":
        g = [Fraction(0)] * nvars
        g[index] = Fraction(1)
        return Dual(la.frac(x), tuple(g))

    def __add__(self, o: "Dual") -> "Dual":
        return Dual(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    def __sub__(self, o: "Dual") -> "Dual":
        return Dual(self.val - o.val, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __neg__(self) -> "Dual":
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __mul__(self, o: "Dual") -> "Dual":
        return Dual(
            self.val * o.val,
            tuple(self.val * b + o.val * a for a, b in zip(self.grad, o.grad)),
        )

    def __truediv__(self, o: "Dual") -> "Dual":
        if o.val == 0:
            raise ZeroDivisionError("dual division by zero value")
        v = self.val / o.val
        return Dual(
            v,
            tuple(
                (a - v * b) / o.val for a, b in zip(self.grad, o.grad)
            ),
        )

    def __bool__(self) -> bool:
        """True unless this is the ring zero: a zero value with a nonzero
        gradient is not zero."""
        return self.val != 0 or any(self.grad)


def laplace_det(m):
    """Laplace expansion along the first column of a nonempty square matrix."""
    if len(m) == 1:
        return m[0][0]
    rest = [row[1:] for row in m]
    total = m[0][0] - m[0][0]
    for i, row in enumerate(m):
        term = row[0] * laplace_det(rest[:i] + rest[i + 1 :])
        total = total - term if i % 2 else total + term
    return total


def gauss_jordan_inverse(m):
    """Inverse of a nonempty square Fraction matrix by Gauss–Jordan with
    Fraction pivots; raises la.SingularMatrixError when there is none."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise la.SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def rational_matmul(a, b):
    """a·b for rational a and b, as the group layer multiplied Fraction
    matrices before it stored them over the integers: with A = D_r·a and
    B = b·D_c integer, (a·b)_ij = (A·B)_ij / (r_i·c_j), one Fraction per
    entry."""

    def integer_rows(m):
        ratios = [[x.as_integer_ratio() for x in row] for row in m]
        scales = [lcm(*(d for _, d in row)) for row in ratios]
        return [[p * (s // d) for p, d in row] for row, s in zip(ratios, scales)], scales

    rows, rs = integer_rows(a)
    cols, cs = integer_rows(tuple(zip(*b)))
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), r * c) for col, c in zip(cols, cs))
        for row, r in zip(rows, rs)
    )


def identity(n):
    """The n×n identity as a Fraction matrix."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def scale(m, c):
    """c·m, entry by entry."""
    return tuple(tuple(c * x for x in row) for row in m)


def proj_equal(a, b):
    """Equality in P(End V), by cross-multiplication: a = c·b for a nonzero
    rational c.  The reference for ``exterior.proj_key``, which the library
    compares instead."""
    if la.dims(a) != la.dims(b):
        return False
    ca = next((x for row in a for x in row if x != 0), None)
    cb = next((x for row in b for x in row if x != 0), None)
    if ca is None or cb is None:
        return ca is None and cb is None
    return scale(a, cb) == scale(b, ca)


def is_diagonal(m):
    return all(x == 0 for i, row in enumerate(m) for j, x in enumerate(row) if i != j)


def is_block_upper(m, blocks):
    """Zero below the block diagonal (blocks given as 0-based index lists)."""
    lookup = {i: k for k, blk in enumerate(blocks) for i in blk}
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(n) if lookup[i] > lookup[j])


def is_block_lower(m, blocks):
    return is_block_upper(la.transpose(m), blocks)


def is_lower_triangular(m):
    return la.is_upper_triangular(la.transpose(m))


def trusted(m):
    """The GroupMatrix of any square rational m, unchecked: m need not have
    det 1, or be invertible.  Its M is m with its denominators cleared, and
    its ``m`` is m itself, since a singular M has no d to derive."""
    g = _trusted(_integer_form(m))
    g.__dict__["m"] = m
    return g


def denominator(g):
    """The d of g = M/d, read off the Fraction view: the lcm of the
    denominators of ``g.m``."""
    return lcm(*(x.denominator for row in g.m for x in row))


def integer_pairs(*pairs):
    """Each square pair (m1, m2) as the integer pair (D1·m1, m2·D2), with the
    same positive diagonals D1 and D2 for every pair: row i of each m1 times
    the lcm of the denominators in row i of all of them, and likewise for
    the columns of the m2.

    ρ_k(D) is a positive diagonal for a positive diagonal D, so every
    ρ_k(D1·m1)·D_k·ρ_k(m2·D2) is ρ_k(D1)·(ρ_k(m1)·D_k·ρ_k(m2))·ρ_k(D2):
    entrywise signs, and projective equality between the images of two
    pairs, are those of the rational pairs."""
    n = len(pairs[0][0])
    ratios = [
        [[list(map(Fraction.as_integer_ratio, row)) for row in m] for m in pair] for pair in pairs
    ]
    rows = [lcm(*(d for r1, _ in ratios for _, d in r1[i])) for i in range(n)]
    cols = [lcm(*(r2[i][j][1] for _, r2 in ratios for i in range(n))) for j in range(n)]
    return [
        (
            tuple(tuple(p * (r // d) for p, d in row) for r, row in zip(rows, r1)),
            tuple(tuple(p * (c // d) for (p, d), c in zip(row, cols)) for row in r2),
        )
        for r1, r2 in ratios
    ]


def evaluate_word(n, steps, one):
    """The product of a word of steps (matgroup's step format), by one
    column operation each.

    Only +, −, × and / are used, starting from the unit ``one``, so the
    entries may lie in any field: the Dual charts run it over dual numbers.
    A torus entry is read as one·a, so over Fraction the int 1s that a chart
    puts at the coroots outside J stay exact.  Zero entries are skipped.
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
            a = [one * c for c in a]
            for k, d in enumerate(c / p for c, p in zip([*a, one], [one, *a])):
                for row in m:
                    if row[k]:
                        row[k] = row[k] * d
    return tuple(tuple(row) for row in m)


def block_ldu(m, blocks):
    """m = l·d·u with l block-lower-unipotent, d block-diagonal and u
    block-upper-unipotent (blocks consecutive, in order); raises
    la.FactorizationError when a leading block Schur complement is
    singular."""
    n = len(m)
    a = [list(row) for row in m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [[Fraction(0)] * n for _ in range(n)]
    for k, blk in enumerate(blocks):
        try:
            dk_inv = gauss_jordan_inverse(tuple(tuple(a[i][j] for j in blk) for i in blk))
        except la.SingularMatrixError:
            raise la.FactorizationError(f"diagonal block {k} singular") from None
        for i in blk:
            for j in blk:
                d[i][j] = a[i][j]
        rest = [i for blk2 in blocks[k + 1 :] for i in blk2]
        for i in rest:
            for tj, j in enumerate(blk):
                lower[i][j] = sum(a[i][t] * dk_inv[ti][tj] for ti, t in enumerate(blk))
        for j in rest:
            for ti, i in enumerate(blk):
                upper[i][j] = sum(dk_inv[ti][tj] * a[t][j] for tj, t in enumerate(blk))
        for i in rest:
            for j in rest:
                a[i][j] -= sum(lower[i][s] * d[s][t] * upper[t][j] for s in blk for t in blk)
    return tuple(tuple(tuple(row) for row in x) for x in (lower, d, upper))


def reversal(n):
    """Antidiagonal permutation matrix (its own inverse)."""
    return tuple(tuple(Fraction(int(j == n - 1 - i)) for j in range(n)) for i in range(n))


def block_anti_ldu(m, blocks):
    """m = u_p·l·u_q with u_p block-upper-unipotent, l block-diagonal and u_q
    block-lower-unipotent: the block LDU of r·m·r for the reversal r, blocks
    reversed, conjugated back by r."""
    n = len(m)
    r = reversal(n)
    rev_blocks = [[n - 1 - i for i in reversed(blk)] for blk in reversed(blocks)]
    factors = block_ldu(naive_matmul(naive_matmul(r, m), r), rev_blocks)
    return tuple(naive_matmul(naive_matmul(r, f), r) for f in factors)


def naive_matmul(a, b):
    """Row-by-column products summed left to right (inner dimension ≥ 1)."""

    def dot(row, col):
        acc = row[0] * col[0]
        for x, y in zip(row[1:], col[1:]):
            acc = acc + x * y
        return acc

    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def x_matrix(n, i, a):
    """x_i(a) = 1 + a·E_{i,i+1}, entry by entry."""
    return tuple(
        tuple(Fraction(a) if (r, c) == (i - 1, i) else Fraction(int(r == c)) for c in range(n))
        for r in range(n)
    )


def y_matrix(n, i, a):
    """y_i(a) = 1 + a·E_{i+1,i}."""
    return tuple(zip(*x_matrix(n, i, a)))


def generator_x(n, i, a):
    """x_i(a) as the one-step word of the library's word evaluator."""
    return _word_element(n, [("x", i, la.frac(a))])


def generator_y(n, i, a):
    """y_i(a) as the one-step word of the library's word evaluator."""
    return _word_element(n, [("y", i, la.frac(a))])


def sample_L_ge0(J, rng):
    """A block-diagonal TNN element of the Levi L_J: the y-word of w₀^J, a
    positive torus element and the x-word of w₀^J, at leg coordinates drawn
    nonnegative from rng."""
    w0j = J.longest_element()
    um, up = ([rand_nonneg_fraction(rng) for _ in range(w0j.length)] for _ in range(2))
    tor = [rand_pos_fraction(rng) for _ in range(J.n - 1)]
    return _word_element(J.n, _double_cell_steps(w0j, w0j, um, tor, up))


def sdot_matrix(n, i):
    """ṡ_i = x_i(−1)·y_i(1)·x_i(−1): the identity with the block [[0, −1], [1, 0]]
    at rows and columns i, i+1."""
    block = {(i - 1, i - 1): 0, (i - 1, i): -1, (i, i - 1): 1, (i, i): 0}
    return tuple(
        tuple(Fraction(block.get((r, c), int(r == c))) for c in range(n)) for r in range(n)
    )


def torus_matrix(coords):
    """diag(a_1, a_2/a_1, …, a_{n−1}/a_{n−2}, 1/a_{n−1}) for the simple-coroot
    coordinates a_1..a_{n−1}."""
    a = [Fraction(1), *map(Fraction, coords), Fraction(1)]
    n = len(a) - 1
    return tuple(
        tuple(a[r + 1] / a[r] if r == c else Fraction(0) for c in range(n))
        for r in range(n)
    )


def southwest_ranks(m):
    """r[i][j] = rank of rows i..n and columns 1..j of m (1-based), with
    r[n + 1][j] = r[i][0] = 0: all n² of them, one la.rank call each."""
    n = len(m)
    r = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = la.rank(la.submatrix(m, range(i - 1, n), range(j)))
    return r


def rank_profile_cell(m):
    """The w with m ∈ B^+ẇB^+, from the whole southwest rank profile: w(j)
    is the row where the profile jumps in column j.  Raises GroupError when
    some column has no jump, as on every singular m."""
    n = len(m)
    r = southwest_ranks(m)
    perm = [0] * n
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if r[i][j] - r[i + 1][j] - r[i][j - 1] + r[i + 1][j - 1] == 1:
                perm[j - 1] = i
                break
        else:
            raise GroupError("rank profile is not a permutation (singular input?)")
    return WeylElement(tuple(perm))


def lex_min_word_by_left_descents(w):
    """The lexicographically least reduced word of w, as letters: the least
    left descent i of w, then the word of s_i·w."""
    letters = []
    cur = w
    while not cur.is_identity():
        i = min(cur.left_descents())
        letters.append(i)
        cur = simple_reflection(cur.n, i) * cur
    return tuple(letters)


def blocks(J):
    """The J-blocks of a ParabolicSubset, 1-based, as fresh lists."""
    return [list(blk) for blk in J._blocks]


def lex_min_word_by_swaps(w):
    """The lexicographically least reduced word of w, as letters: sort
    q = w⁻¹ by adjacent swaps, always at the leftmost descent.  The least
    left descent i of w is the least descent of q, and s_i·w has inverse q
    with positions i, i+1 swapped; a swap at i leaves no descent left of
    i − 1, so the scan resumes there."""
    q = list(w.inverse().perm)
    letters = []
    i = 1
    while i < len(q):
        if q[i - 1] > q[i]:
            q[i - 1], q[i] = q[i], q[i - 1]
            letters.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(letters)


def positive_subexpression_stations(word, v):
    """The stations v_(0), …, v_(m) of the positive subexpression of word
    for v, as the library built them before it kept one permutation: v_(m)
    = v, and v_(j−1) is v_(j)·s_{i_j} when that is shorter, else v_(j).
    None when v_(0) is not the identity, that is when v is not below the
    word's product."""
    stations = [v] * (len(word.letters) + 1)
    for j in range(len(word.letters), 0, -1):
        down = stations[j].right_s(word.letters[j - 1])
        stations[j - 1] = down if down.length < stations[j].length else stations[j]
    return tuple(stations) if stations[0].is_identity() else None


def is_signed_permutation(m):
    """Every row and every column of m holds exactly one nonzero entry, ±1."""
    return all(
        sorted(map(abs, line)) == [0] * (len(line) - 1) + [1] for line in (*m, *zip(*m))
    )


def refusing_signed_permutations(matmul):
    """matmul, failing whenever an operand is a signed permutation matrix:
    products with Weyl lifts and the identity must be index maps."""

    def guarded(a, b):
        if is_signed_permutation(a) or is_signed_permutation(b):
            raise AssertionError("a product with a signed permutation reached matmul")
        return matmul(a, b)

    return guarded


def fraction_minors(m):
    """Every minor of the square rational matrix m, each the Laplace
    expansion of its rows and columns."""
    idx = range(len(m))
    return [
        laplace_det([[m[i][j] for j in cols] for i in rows])
        for k in idx
        for rows in combinations(idx, k + 1)
        for cols in combinations(idx, k + 1)
    ]


def fraction_is_tnn(m):
    return all(x >= 0 for x in fraction_minors(m))


def fraction_is_totally_positive(g):
    """Every minor of g, or for even n of −g, strictly positive."""
    if all(x > 0 for x in fraction_minors(g.m)):
        return True
    return g.n % 2 == 0 and all(x > 0 for x in fraction_minors(scale(g.m, Fraction(-1))))


def compound_pass_images(J, m1, m2):
    """ρ_k(m1)·D_k·ρ_k(m2) for k = 1..n−1, from one compound pass per side,
    over any ring, as the library built the fundamental tuple before it
    built only the kept minors: D_k = stratum_indicator(J, k) is a 0/1
    diagonal projector, applied by keeping the columns of ρ_k(m1) and the
    rows of ρ_k(m2) it selects."""
    return [
        kept_product(c1, c2, _levi_weight_positions(J.n, k, J))
        for k, (c1, c2) in enumerate(zip(compounds(m1, J.n - 1), compounds(m2, J.n - 1)), 1)
    ]


def kept_product(c1, c2, keep):
    """c1·D·c2 for the 0/1 diagonal D with ones at the positions keep: the
    columns keep of c1 times the rows keep of c2."""
    return la.matmul(tuple(tuple(row[s] for s in keep) for row in c1), tuple(c2[s] for s in keep))


def rational_tuple(z):
    """z's rational images ρ_k(g1)·D_k·ρ_k(g2), k = 1..n−1, on the Fraction
    views of g1 and g2."""
    return _limit_images(z.J, z.g1.m, z.g2.m)


def point_equal(z, w):
    """Point equality as the library decided it before it compared keys:
    one stratum, and every entry of the fundamental tuples one projective
    point by cross-multiplication."""
    return z.J == w.J and all(map(proj_equal, fundamental_tuple(z), fundamental_tuple(w)))


def fraction_membership(z):
    """Every rational image ρ_k(g1)·D_k·ρ_k(g2) of z strictly signed."""
    return all(strictly_signed(m) for m in rational_tuple(z))


def lmat_from_rational(m):
    """The matrix m as constant Laurent polynomials with Fraction coefficients."""
    return tuple(tuple(Laurent.of(x) for x in row) for row in m)


def lmat_torus_curve(m1, exponents, m2):
    """m1·diag(s^e_1, …, s^e_n)·m2 as a Laurent matrix, for matrices of
    Fractions or ints: entry (i, j) collects m1[i][l]·m2[l][j] at the
    exponent e_l."""

    def entry(row, col):
        d = {}
        for x, e, y in zip(row, exponents, col):
            d[e] = d.get(e, 0) + x * y
        return Laurent(tuple(sorted((e, c) for e, c in d.items() if c)))

    return tuple(tuple(entry(row, col) for col in zip(*m2)) for row in m1)


def curve_exponents(c):
    """Diagonal exponents e_i = sum of c_m for m >= i (e_n = 0)."""
    n = len(c) + 1
    e = [0] * n
    for i in range(n - 2, -1, -1):
        e[i] = e[i + 1] + c[i]
    return e


def top_weight_positions(e, k):
    """The colex positions of the k-subsets S of {1..n} whose weight
    e_S = Σ_{i∈S} e_i is largest."""
    weights = [sum(e[i - 1] for i in s) for s in subsets_colex(len(e), k)]
    top = max(weights)
    return [i for i, w in enumerate(weights) if w == top]


def cauchy_binet_limit_check(g1, cs, g2, z):
    """Whether, in every degree k, the limit of ρ_k(g1·t(s)·g2) along the
    torus curve of exponents cs is z's image ρ_k(z.g1)·D_k·ρ_k(z.g2),
    projectively.

    With t(s) = diag(s^{-e}), Cauchy–Binet gives ρ_k(g1·t(s)·g2) =
    Σ_S s^{-e_S}·ρ_k(g1)[:, S]·ρ_k(g2)[S, :] over the k-subsets S, so the
    limit keeps the S of largest weight e_S, found from the exponents, not
    from z's stratum; ρ_k(g1) and ρ_k(g2) are invertible, so that top layer
    never vanishes.  Both sides run on one ``integer_pairs`` scaling."""
    n = g1.n
    e = curve_exponents(cs)
    (m1, m2), (p1, p2) = integer_pairs((g1.m, g2.m), (z.g1.m, z.g2.m))
    levels = zip(_limit_images(z.J, p1, p2), compounds(m1, n - 1), compounds(m2, n - 1))
    return all(
        proj_equal(kept_product(c1, c2, top_weight_positions(e, k)), want)
        for k, (want, c1, c2) in enumerate(levels, start=1)
    )


def fraction_limit_check(g1, cs, g2, z):
    """Whether, in every degree k, the limit of ρ_k(g1·t(s)·g2) along the
    torus curve of exponents cs, over Fraction Laurent polynomials, is z's
    rational image projectively."""
    n = g1.n
    e = curve_exponents(cs)
    curve = tuple(
        tuple(Laurent.monomial(-e[i]) if i == j else Laurent.of(0) for j in range(n))
        for i in range(n)
    )
    x = la.matmul(la.matmul(lmat_from_rational(g1.m), curve), lmat_from_rational(g2.m))
    return all(
        proj_equal(lmat_limit(cx), want)
        for want, cx in zip(rational_tuple(z), compounds(x, n - 1))
    )


def dense_projector(n, k, keep):
    """The dim×dim diagonal 0/1 Fraction matrix on Λ^k(Q^n) whose ones sit at
    the colex k-subsets S with keep(S)."""
    subs = subsets_colex(n, k)
    return tuple(
        tuple(Fraction(int(i == j and keep(s))) for j in range(len(subs)))
        for i, s in enumerate(subs)
    )


def dense_star_pair(z, data):
    """(ρ_k1(M1)·I_1·ρ_k1(M2), ρ_k2(M1)·I_L·ρ_k2(M2)) for the integer pair
    (M1, M2) of z's action pair g_i = M_i/d_i, from dense compounds
    multiplied out by la.matmul.  I_1 is the rank-one projector onto the
    highest weight vector e_{1..k1}; I_L keeps the k2-subsets meeting every
    J-block in as many elements as {1..k2} does, i.e. the weights that
    differ from the highest one by roots of J only."""
    n, k1, k2 = z.n, data.k1, data.k2
    top = tuple(range(1, k2 + 1))
    blocks = [{i + 1 for i in blk} for blk in z.J.blocks0()]
    i1 = dense_projector(n, k1, lambda s: s == tuple(range(1, k1 + 1)))
    il = dense_projector(
        n, k2, lambda s: all(len(b.intersection(s)) == len(b.intersection(top)) for b in blocks)
    )
    return tuple(
        la.matmul(la.matmul(compound(z.g1.M, k), proj), compound(z.g2.M, k))
        for k, proj in ((k1, i1), (k2, il))
    )


def triple(z):
    """z = (g1, g2⁻¹)·z°_J as the triple (a, b, g) = (g1, g2⁻¹, g1·g2) of
    conjugators of P_J and Q_J and a coset representative."""
    return (z.g1, z.g2.inverse(), z.g1 @ z.g2)


def coset_equal(z1, z2):
    """Whether z1 and z2 are one point by cosets: with (a_i, b_i, g_i) =
    triple(z_i), same J, a1⁻¹·a2 in P_J, b1⁻¹·b2 in Q_J, and the Levi parts
    of a1⁻¹·g1·b1 and a1⁻¹·g2·b1 equal after each diagonal block is scaled
    so that its first nonzero entry is 1."""
    if z1.J != z2.J:
        return False
    blocks = z1.J.blocks0()
    (a1, b1, g1), (a2, b2, g2) = triple(z1), triple(z2)
    a_inv = a1.inverse()
    if not is_block_upper((a_inv @ a2).m, blocks):
        return False
    if not is_block_lower((b1.inverse() @ b2).m, blocks):
        return False
    try:
        levis = [la.levi_part((a_inv @ g @ b1).m, blocks) for g in (g1, g2)]
    except la.FactorizationError:
        return False
    return _blockwise_normalized(levis[0], blocks) == _blockwise_normalized(levis[1], blocks)


def _blockwise_normalized(m, blocks):
    rows = [list(row) for row in m]
    for blk in blocks:
        pivot = next(rows[i][j] for i in blk for j in blk if rows[i][j] != 0)
        for i in blk:
            for j in blk:
                rows[i][j] /= pivot
    return rows


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(max_denominator=10**15),
)


@st.composite
def square_matrices(draw, max_n=5):
    """Random rational matrices, a share of them singular by construction."""
    n = draw(st.integers(1, max_n))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["generic", "zero_row", "zero_col", "dependent"]))
    i = draw(st.integers(0, n - 1))
    if kind == "zero_row":
        rows[i] = [Fraction(0)] * n
    elif kind == "zero_col":
        for row in rows:
            row[i] = Fraction(0)
    elif kind == "dependent" and n > 1:
        others = [row for t, row in enumerate(rows) if t != i]
        coefs = [draw(rationals) for _ in others]
        rows[i] = [sum(c * row[j] for c, row in zip(coefs, others)) for j in range(n)]
    return kind, la.mat(rows)


NVARS = 2
small = st.integers(-3, 3).map(Fraction)
gradients = st.tuples(*[small] * NVARS)

# A share of the entries are exactly zero, and a share have value 0 with a
# nonzero gradient: those are not the ring zero and must not be skipped.
duals = st.one_of(
    st.just(Dual.const(0, NVARS)),
    st.builds(Dual, st.just(Fraction(0)), gradients.filter(any)),
    st.builds(Dual, small, gradients),
)


def dual_matrices(nr, nc):
    return st.lists(
        st.lists(duals, min_size=nc, max_size=nc).map(tuple), min_size=nr, max_size=nr
    ).map(tuple)


def partial_flag(J, g, opposite):
    """The proper subspaces that ^gP_J (or ^gQ_J) stabilizes, as column
    matrices: spans of g's columns over the leading J-blocks (the trailing
    blocks on the opposite side)."""
    cols = la.transpose(g.m)
    blocks = J.blocks0()
    if opposite:
        blocks = blocks[::-1]
    chosen, steps = [], []
    for blk in blocks[:-1]:
        chosen += [cols[i] for i in blk]
        steps.append(la.transpose(tuple(chosen)))
    return steps


def lie_algebra(J, g, opposite):
    """Basis of Lie(^g P_J) (or of Lie(^g Q_J)) inside gl_n, as columns of
    length n²: g·E_ij·g⁻¹ for every (i, j) on or above (below) the block
    diagonal."""
    n = J.n
    gm, ginv = g.m, gauss_jordan_inverse(g.m)
    block = {i: k for k, blk in enumerate(J.blocks0()) for i in blk}
    cols = []
    for i in range(n):
        for j in range(n):
            keep = block[i] >= block[j] if opposite else block[i] <= block[j]
            if keep:
                cols.append(tuple(gm[r][i] * ginv[j][c] for r in range(n) for c in range(n)))
    return la.transpose(tuple(cols))


def opposed_by_lie_algebra(J, gp, gq):
    """^gp P_J and ^gq Q_J are opposed iff their Lie algebras meet in the
    dimension of the standard Levi."""
    lie_p, lie_q = lie_algebra(J, gp, False), lie_algebra(J, gq, True)
    dim_p, dim_q = la.dims(lie_p)[1], la.dims(lie_q)[1]
    dim_sum = la.rank(tuple(rp + rq for rp, rq in zip(lie_p, lie_q)))
    return dim_p + dim_q - dim_sum == sum(len(blk) ** 2 for blk in J.blocks0())


def mr_chart(v, w, rng):
    """A Marsh–Rietsch chart (psub, coords) for v ≤ w over the least reduced
    word of w, at positive coordinates drawn from rng."""
    psub = positive_subexpression(lex_min_reduced_word(w), v)
    return psub, tuple(rand_pos_fraction(rng) for _ in psub.jcirc)


def chart_elements(label, coords):
    """The flag charts g, g' and the Levi element l of the label's chart at
    coords, each evaluated on its own: the point is (g·l, ψ(g'))·z°_J."""
    flag1, flag2, levi = _chart(label, coords)
    return mr_evaluate(*flag1), mr_evaluate(*flag2), double_cell_evaluate(*levi)


def dual_chart(label, values):
    """The sampler's chart (g·l, ψ(g')) with one Dual variable per value, in
    the coordinate order of ``cells._chart``."""
    x = [Dual.var(a, k, len(values)) for k, a in enumerate(values)]
    one = Dual.const(1, len(values))
    flag1, flag2, (wm, wpl, aminus, tor, aplus) = _chart(label, x)
    tor = tuple(c if isinstance(c, Dual) else one for c in tor)  # the coroots outside J
    word1, word2 = _chart_words((flag1, flag2, (wm, wpl, aminus, tor, aplus)))
    n = label.J.n
    return (evaluate_word(n, word1, one), la.transpose(evaluate_word(n, word2, one)))


def dual_words(J, word1, word2):
    """The chart (F_1···F_m, (G_1···G_r)ᵀ) of two words of Fraction steps
    over Dual numbers, with one variable per x_i and y_i step and per
    coroot j ∈ J of a torus step, in word order."""
    nvars = sum(
        1 if kind in ("x", "y") else len(J.J) if kind == "t" else 0
        for kind, _, _ in word1 + word2
    )
    index = iter(range(nvars))
    one = Dual.const(1, nvars)

    def lift(kind, i, a):
        if kind in ("x", "y"):
            return (kind, i, Dual.var(a, next(index), nvars))
        if kind == "t":
            return (kind, i, tuple(
                Dual.var(c, next(index), nvars) if j in J.J else Dual.const(c, nvars)
                for j, c in enumerate(a, 1)
            ))
        return (kind, i, a)

    g1 = evaluate_word(J.n, [lift(*step) for step in word1], one)
    g2 = evaluate_word(J.n, [lift(*step) for step in word2], one)
    return g1, la.transpose(g2)


def dual_rank(J, g1, g2):
    """The exact rank of the Dual chart (g1, g2) into the fundamental
    representations: the gradients of ρ_k(g1)·D_k·ρ_k(g2), each degree
    normalized by its first nonzero value."""
    rows = []
    for nk in _limit_images(J, g1, g2):
        pivot = next((x for row in nk for x in row if x.val != 0), None)
        if pivot is None:
            return -1
        rows += [(x / pivot).grad for row in nk for x in row]
    return la.rank(tuple(rows))


def dual_jacobian_rank(label, rng):
    """The Jacobian rank check's rank before the tangent route: the Dual
    chart at dimension_of(label) values drawn from rng."""
    vals = [rand_pos_fraction(rng) for _ in range(dimension_of(label))]
    return dual_rank(label.J, *dual_chart(label, vals))
