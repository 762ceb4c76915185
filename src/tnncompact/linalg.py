"""Exact linear algebra on immutable tuple-of-tuples matrices.

There are no floating point kernels and no tolerances.  Matrices are stored
as tuples of row tuples of one length (``dims`` refuses ragged rows), with
entries in any exact commutative ring: Python ints (the group layer stores
every group element as its primitive integer matrix), Fractions (the values
callers read, and the Jacobian rank check's tangent vectors), and the
Laurent polynomials of the ``limits`` suite's torus curves.
Determinant and rank share one fraction-free (Bareiss) forward
elimination after clearing denominators, so pivot decisions are exact
integer zero-tests and no Fraction is built inside the elimination; the
inverse and the group layer's adjugate share one fraction-free
Gauss–Jordan pass.  Every product is one dot product in C per entry
(``_product``) over any ring's entries (ints, Fractions, Laurent
polynomials), as ``transpose`` is: ``matmul`` checks shapes and calls it,
and the group layer calls it directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


class LinAlgError(Exception):
    """Base class for exact linear algebra failures."""


class SingularMatrixError(LinAlgError):
    pass


class FactorizationError(LinAlgError):
    """A Gauss/LDU-type factorization does not exist (vanishing minor)."""


def frac(x) -> Fraction:
    """x as a Fraction, for an int or a Fraction; anything else (a bool, a
    float, a string, a Decimal) raises TypeError, so no inexact value and
    no truth value is read as a number."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"exact entries are ints or Fractions, got {type(x).__name__}")


def mat(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(tuple(frac(x) for x in row) for row in rows)
    dims(m)
    return m


def zeros(nr: int, nc: int) -> Matrix:
    zero = Fraction(0)
    return tuple((zero,) * nc for _ in range(nr))


def dims(m: Matrix) -> tuple[int, int]:
    """(rows, columns) of m; raises ValueError when its rows differ in length."""
    nc = len(m[0]) if m else 0
    if any(len(row) != nc for row in m):
        raise ValueError("ragged rows")
    return len(m), nc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a·b over any commutative ring (int, Fraction, Laurent), after a
    shape check of both operands: ``_product``."""
    if dims(a)[1] != dims(b)[0]:
        raise ValueError(f"shape mismatch {dims(a)} @ {dims(b)}")
    return _product(a, b)


def _product(a: Matrix, b: Matrix) -> Matrix:
    """a·b, one dot product in C (``sum(map(mul, …))``) per entry, by ring
    operations only, in list comprehensions (cheaper than generators on
    small matrices).  Every sum starts from the zero read off the entries,
    so ints stay ints and all entries must come from one ring."""
    zero = a[0][0] - a[0][0] if a and b else 0
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col), zero) for col in cols]) for row in a])


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def submatrix(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def _integer_rows(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as ints, and those
    multipliers (so det(m) = det(rows) / their product)."""
    rows = []
    scales = []
    for row in m:
        ratios = [x.as_integer_ratio() for x in row]
        l = lcm(*(d for _, d in ratios))
        rows.append([p * (l // d) for p, d in ratios])
        scales.append(l)
    return rows, scales


def _eliminate(a: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) forward elimination of the integer rows a in
    place: (rank, last pivot, sign of the row swaps).  Every division is
    exact; for a square a of full rank, sign·(last pivot) = det a."""
    nr = len(a)
    r = 0
    prev = 1
    sign = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pr = a[r]
        p = pr[c]
        for i in range(r + 1, nr):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, ncols):
                ai[j] = (p * ai[j] - f * pr[j]) // prev
        prev = p
        r += 1
    return r, prev, sign


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over Z/p, p prime, of the integer rows, by Gaussian elimination
    on their residues; it stops once every row has a pivot."""
    a = [[x % p for x in row] for row in rows]
    nr = len(a)
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pr = a[r]
        inv = pow(pr[c], -1, p)
        for i in range(r + 1, nr):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], pr)]
        r += 1
        if r == nr:
            break
    return r


def det(m: Matrix) -> Fraction:
    """Determinant by integer Bareiss elimination (denominators cleared)."""
    n, nc = dims(m)
    if n != nc:
        raise ValueError("determinant of non-square matrix")
    a, scales = _integer_rows(m)
    r, last, sign = _eliminate(a, n)
    return Fraction(sign * last, prod(scales)) if r == n else Fraction(0)


def minor(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    return det(submatrix(m, rows, cols))


def inverse(m: Matrix) -> Matrix:
    """Inverse by one fraction-free pass (``_adjugate``) on the integer rows.

    With m = D⁻¹·A for A = _integer_rows(m) and D its diagonal of row
    multipliers, m⁻¹ = A⁻¹·D = adj(A)·D / det A.  Fractions are built only
    for the n² output entries.
    """
    n, nc = dims(m)
    if n != nc:
        raise ValueError("inverse of non-square matrix")
    a, scales = _integer_rows(m)
    adj, d = _adjugate(a)
    return tuple(tuple(Fraction(x * s, d) for x, s in zip(row, scales)) for row in adj)


def _adjugate(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj A, det A) for the square integer rows a, by fraction-free
    (Bareiss) Gauss–Jordan on [A | I], which consumes a.

    The elimination leaves p·A⁻¹ in the right half, p the last pivot, and
    every division is exact; p = ±det A, the sign that of the row swaps.
    Raises SingularMatrixError when det A = 0.
    """
    n = len(a)
    for i, row in enumerate(a):
        row.extend(int(i == j) for j in range(n))
    width = 2 * n
    prev = 1
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        p = pk[k]
        for i in range(n):
            if i != k:  # columns up to k are never read again
                ai = a[i]
                f = ai[k]
                for j in range(k + 1, width):
                    ai[j] = (p * ai[j] - f * pk[j]) // prev
        prev = p
    if sign < 0:
        return [[-x for x in row[n:]] for row in a], -prev
    return [row[n:] for row in a], prev


def rank(m: Matrix) -> int:
    """Exact rank via integer Bareiss elimination: an all-int matrix is
    eliminated as it is, any other after its denominators are cleared."""
    nc = dims(m)[1]
    if all(type(x) is int for row in m for x in row):
        a = [list(row) for row in m]
    else:
        a = _integer_rows(m)[0]
    return _eliminate(a, nc)[0]


def is_upper_triangular(m: Matrix) -> bool:
    n, _ = dims(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i))


# Only matgroup.pi_factor calls ldu; both stay while BENCHMARK.json names
# them as per-layer metrics.
def ldu(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Factor m = l·d·u with l lower unipotent, d diagonal, u upper unipotent.

    Exists iff all leading principal minors are nonzero; raises
    FactorizationError otherwise (the matrix is outside the open cell).
    """
    n, nc = dims(m)
    if n != nc:
        raise ValueError("ldu of non-square matrix")
    a = [list(row) for row in m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n
    for k in range(n):
        if a[k][k] == 0:
            raise FactorizationError(f"leading principal minor of order {k + 1} vanishes")
        diag[k] = a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            lower[i][k] = f
            if f != 0:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    upper = tuple(
        tuple(a[i][j] / diag[i] if j >= i else Fraction(0) for j in range(n))
        for i in range(n)
    )
    d = tuple(
        tuple(diag[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    return (tuple(tuple(row) for row in lower), d, upper)


def levi_part(m: Matrix, blocks: Sequence[Sequence[int]]) -> Matrix:
    """The block-diagonal l of m = u_p·l·u_q, u_p block-upper-unipotent and
    u_q block-lower-unipotent (the two-sided parabolic reduction).

    Blocks are consecutive 0-based index ranges in order.  The trailing
    block of m is that of l, and its Schur complement in m is u_p·l·u_q cut
    to the blocks ahead, so one pass from the last block to the first reads
    off l.  The factorization exists iff every block met on the way is
    invertible, i.e. iff the standard parabolic is opposed to the
    m-conjugate of its opposite; FactorizationError is raised otherwise.
    """
    n, nc = dims(m)
    if n != nc:
        raise ValueError("levi_part of non-square matrix")
    l = [list(row) for row in zeros(n, n)]
    a = m
    for blk in reversed(blocks):
        s = blk[0]
        d = tuple(row[s:] for row in a[s:])
        try:
            d_inv = inverse(d)
        except SingularMatrixError:
            raise FactorizationError(f"block at {s} singular in two-sided reduction") from None
        for i, row in zip(blk, d):
            l[i][s : s + len(row)] = row
        if s:
            upd = matmul(
                matmul(tuple(row[s:] for row in a[:s]), d_inv),
                tuple(row[:s] for row in a[s:]),
            )
            a = tuple(
                tuple(x - y for x, y in zip(row[:s], urow)) for row, urow in zip(a, upd)
            )
    return tuple(tuple(row) for row in l)


# ---------------------------------------------------------------------------
# column-space utilities.  Nothing in the package calls these; they stay
# while BENCHMARK.json names them as per-layer metrics.

def column_basis(m: Matrix) -> Matrix:
    """Columns of m reduced to an independent spanning subset (as columns)."""
    nr, nc = dims(m)
    cols: list[Vector] = []
    for j in range(nc):
        cand = tuple(m[i][j] for i in range(nr))
        if not in_span(cols, cand):
            cols.append(cand)
    return transpose(tuple(cols)) if cols else zeros(nr, 0)


def in_span(cols: Sequence[Vector], v: Vector) -> bool:
    if not cols:
        return all(x == 0 for x in v)
    a = transpose(tuple(cols))
    return rank(a) == rank(tuple(list(row) + [x] for row, x in zip(a, v)))


def span_intersection(a: Matrix, b: Matrix) -> Matrix:
    """Basis of (col-space a) ∩ (col-space b), as columns."""
    nr, ka = dims(a)
    _, kb = dims(b)
    if ka == 0 or kb == 0:
        return zeros(nr, 0)
    stacked = tuple(
        tuple(a[i][j] for j in range(ka)) + tuple(-b[i][j] for j in range(kb))
        for i in range(nr)
    )
    k = kernel(stacked)
    vecs = []
    for kv in transpose(k) if dims(k)[1] else []:
        vec = tuple(
            sum(a[i][j] * kv[j] for j in range(ka)) for i in range(nr)
        )
        vecs.append(vec)
    if not vecs:
        return zeros(nr, 0)
    return column_basis(transpose(tuple(vecs)))


def kernel(m: Matrix) -> Matrix:
    """Basis of the right null space, as columns."""
    nr, nc = dims(m)
    a = [list(row) for row in m]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -a[ri][fc]
        basis.append(tuple(v))
    if not basis:
        return zeros(nc, 0)
    return transpose(tuple(basis))
