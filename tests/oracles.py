"""Reference algorithms and hypothesis strategies shared by the kernel tests.

The references are the textbook definitions, written with ring operations
only (no division, no zero tests), so they apply unchanged to Fraction,
Laurent and Dual entries and stay independent of the library's kernels.
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
