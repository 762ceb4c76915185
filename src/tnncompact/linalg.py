"""Exact rational linear algebra on immutable tuple-of-tuples matrices.

Everything in this package runs over ``fractions.Fraction``; there are no
floating point kernels and no tolerances.  Matrices are stored as tuples of
row tuples.  Determinant and rank are computed by fraction-free (Bareiss)
elimination after clearing denominators, so pivot decisions are exact
integer zero-tests and no Fraction is built inside the elimination.
``matmul`` and ``transpose`` use ring operations only, so they also serve
the Laurent and dual-number matrices of ``laurent`` and ``dual``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def mat(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(tuple(frac(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged rows")
    return m


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(nr: int, nc: int) -> Matrix:
    zero = Fraction(0)
    return tuple((zero,) * nc for _ in range(nr))


def dims(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product over any commutative ring whose ``bool`` means "not zero"
    (Fraction, Laurent, Dual); zero entries are skipped."""
    na, ma = dims(a)
    nb, mb = dims(b)
    if ma != nb:
        raise ValueError(f"shape mismatch {dims(a)} @ {dims(b)}")
    zero = a[0][0] - a[0][0] if na and ma else Fraction(0)
    out = []
    for row in a:
        acc = [zero] * mb
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def scale(m: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in m)


def submatrix(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def _integer_rows(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as ints, and those
    multipliers (so det(m) = det(rows) / their product)."""
    rows = []
    scales = []
    for row in m:
        l = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (l // x.denominator) for x in row])
        scales.append(l)
    return rows, scales


def det(m: Matrix) -> Fraction:
    """Determinant by integer Bareiss elimination (denominators cleared)."""
    n, nc = dims(m)
    if n != nc:
        raise ValueError("determinant of non-square matrix")
    a, scales = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        p = pk[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (p * ai[j] - f * pk[j]) // prev
        prev = p
    return Fraction(sign * prev, prod(scales))


def minor(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    return det(submatrix(m, rows, cols))


def inverse(m: Matrix) -> Matrix:
    """Inverse by fraction-free (Bareiss) Gauss–Jordan on the integer rows.

    With m = D⁻¹·A for A = _integer_rows(m) and D its diagonal of row
    multipliers, elimination on [A | I] leaves d·A⁻¹ in the right half,
    d = ±det A the last pivot, every division exact; then m⁻¹ = A⁻¹·D.
    Fractions are built only for the n² output entries.
    """
    n, nc = dims(m)
    if n != nc:
        raise ValueError("inverse of non-square matrix")
    a, scales = _integer_rows(m)
    for i, row in enumerate(a):
        row.extend(int(i == j) for j in range(n))
    width = 2 * n
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        p = pk[k]
        for i in range(n):
            if i != k:  # columns up to k are never read again
                ai = a[i]
                f = ai[k]
                for j in range(k + 1, width):
                    ai[j] = (p * ai[j] - f * pk[j]) // prev
        prev = p
    return tuple(
        tuple(Fraction(x * s, prev) for x, s in zip(row[n:], scales)) for row in a
    )


def rank(m: Matrix) -> int:
    """Exact rank via integer Bareiss elimination (denominators cleared)."""
    nr, nc = dims(m)
    if nr == 0 or nc == 0:
        return 0
    a, _ = _integer_rows(m)
    r = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nr:
            break
    return r


def is_upper_triangular(m: Matrix) -> bool:
    n, _ = dims(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i))


def is_lower_triangular(m: Matrix) -> bool:
    return is_upper_triangular(transpose(m))


def is_diagonal(m: Matrix) -> bool:
    n, _ = dims(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def is_block_upper(m: Matrix, blocks: Sequence[Sequence[int]]) -> bool:
    """Zero below the block diagonal (blocks given as 0-based index lists)."""
    lookup = {i: k for k, blk in enumerate(blocks) for i in blk}
    n, _ = dims(m)
    return all(
        m[i][j] == 0 for i in range(n) for j in range(n) if lookup[i] > lookup[j]
    )


def is_block_lower(m: Matrix, blocks: Sequence[Sequence[int]]) -> bool:
    return is_block_upper(transpose(m), blocks)


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
