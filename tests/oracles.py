"""Reference algorithms and hypothesis strategies shared by the tests.

The kernel references are the textbook definitions, written with ring
operations only (no division, no zero tests), so they apply unchanged to
Fraction, Laurent and Dual entries and stay independent of the library's
kernels.  The group-layer references decide flag and parabolic questions
by subspaces and Lie algebras, independently of the library's eliminations.
"""

from fractions import Fraction

from hypothesis import strategies as st

from tnncompact import linalg as la
from tnncompact.dual import Dual


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


def naive_matmul(a, b):
    """Row-by-column products summed left to right (inner dimension ≥ 1)."""

    def dot(row, col):
        acc = row[0] * col[0]
        for x, y in zip(row[1:], col[1:]):
            acc = acc + x * y
        return acc

    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


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


def partial_flag(parabolic):
    """The proper subspaces a ParabolicPoint stabilizes, as column matrices:
    spans of its conjugator's columns over the leading J-blocks (the
    trailing blocks on the opposite side)."""
    cols = la.transpose(parabolic.g.m)
    blocks = parabolic.J.blocks0()
    if parabolic.opposite:
        blocks = blocks[::-1]
    chosen, steps = [], []
    for blk in blocks[:-1]:
        chosen += [cols[i] for i in blk]
        steps.append(la.transpose(tuple(chosen)))
    return steps


def lie_algebra(parabolic):
    """Basis of Lie(^g P_J) (or of Lie(^g Q_J)) inside gl_n, as columns of
    length n²: g·E_ij·g⁻¹ for every (i, j) on or above (below) the block
    diagonal."""
    n = parabolic.n
    g, ginv = parabolic.g.m, la.inverse(parabolic.g.m)
    block = {i: k for k, blk in enumerate(parabolic.J.blocks0()) for i in blk}
    cols = []
    for i in range(n):
        for j in range(n):
            keep = block[i] >= block[j] if parabolic.opposite else block[i] <= block[j]
            if keep:
                cols.append(tuple(g[r][i] * ginv[j][c] for r in range(n) for c in range(n)))
    return la.transpose(tuple(cols))


def opposed_by_lie_algebra(P, Q):
    """P and Q are opposed iff Lie(P) ∩ Lie(Q) has the dimension of the
    standard Levi."""
    lie_p, lie_q = lie_algebra(P), lie_algebra(Q)
    dim_p, dim_q = la.dims(lie_p)[1], la.dims(lie_q)[1]
    dim_sum = la.rank(tuple(rp + rq for rp, rq in zip(lie_p, lie_q)))
    return dim_p + dim_q - dim_sum == sum(len(blk) ** 2 for blk in P.J.blocks0())
