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
from math import lcm
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
    if isinstance(x, str):
        return Fraction(x)
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


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def scale(m: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in m)


def submatrix(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def _integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, as ints, and the product
    of those multipliers (so det(m) = det(rows) / product)."""
    rows = []
    scales = 1
    for row in m:
        l = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (l // x.denominator) for x in row])
        scales *= l
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
    return Fraction(sign * prev, scales)


def minor(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    return det(submatrix(m, rows, cols))


def inverse(m: Matrix) -> Matrix:
    n, nc = dims(m)
    if n != nc:
        raise ValueError("inverse of non-square matrix")
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


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


def block_ldu(
    m: Matrix, blocks: Sequence[Sequence[int]]
) -> tuple[Matrix, Matrix, Matrix]:
    """Block LDU: m = l·d·u, l/u block-unipotent lower/upper, d block-diagonal.

    Blocks are consecutive 0-based index ranges in order.  Exists iff the
    leading principal *block* minors are invertible.
    """
    n, nc = dims(m)
    if n != nc:
        raise ValueError("block_ldu of non-square matrix")
    a = [list(row) for row in m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [[Fraction(0)] * n for _ in range(n)]
    for k, blk in enumerate(blocks):
        dk = tuple(tuple(a[i][j] for j in blk) for i in blk)
        if det(dk) == 0:
            raise FactorizationError(f"diagonal block {k} singular in block LDU")
        dk_inv = inverse(dk)
        for i in blk:
            for j in blk:
                d[i][j] = a[i][j]
        rest = [i for blk2 in blocks[k + 1 :] for i in blk2]
        for i in rest:
            lcoef = [
                sum(a[i][t] * dk_inv[ti][tj] for ti, t in enumerate(blk))
                for tj in range(len(blk))
            ]
            for tj, j in enumerate(blk):
                lower[i][j] = lcoef[tj]
        for j in rest:
            ucoef = [
                sum(dk_inv[ti][tj] * a[t2][j] for tj, t2 in enumerate(blk))
                for ti in range(len(blk))
            ]
            for ti, i in enumerate(blk):
                upper[i][j] = ucoef[ti]
        for i in rest:
            for j in rest:
                a[i][j] -= sum(
                    lower[i][s] * d[s][t] * upper[t][j] for s in blk for t in blk
                )
    return (
        tuple(tuple(row) for row in lower),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in upper),
    )


def reversal(n: int) -> Matrix:
    """Antidiagonal permutation matrix (its own inverse)."""
    zero, one = Fraction(0), Fraction(1)
    return tuple(
        tuple(one if j == n - 1 - i else zero for j in range(n)) for i in range(n)
    )


def block_anti_ldu(
    m: Matrix, blocks: Sequence[Sequence[int]]
) -> tuple[Matrix, Matrix, Matrix]:
    """Factor m = u_p·l·u_q with u_p block-upper-unipotent, l block-diagonal,
    u_q block-lower-unipotent (the two-sided parabolic reduction).

    Exists iff trailing principal block minors are invertible, i.e. iff the
    standard parabolic is opposed to the m-conjugate of its opposite.
    """
    n, _ = dims(m)
    r = reversal(n)
    rev_blocks = []
    for blk in reversed(blocks):
        rev_blocks.append([n - 1 - i for i in reversed(blk)])
    lm, dm, um = block_ldu(matmul(matmul(r, m), r), rev_blocks)
    return (
        matmul(matmul(r, lm), r),
        matmul(matmul(r, dm), r),
        matmul(matmul(r, um), r),
    )


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
