import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tnncompact import linalg as la


def rand_matrix(n, rng, bound=5):
    return la.mat(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rand_invertible(n, rng):
    while True:
        m = rand_matrix(n, rng)
        if la.det(m) != 0:
            return m


small = st.integers(-6, 6)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_leibniz(rows):
    m = la.mat(rows)
    from itertools import permutations

    def sign(p):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        return s

    leibniz = sum(
        sign(p) * m[0][p[0]] * m[1][p[1]] * m[2][p[2]]
        for p in permutations(range(3))
    )
    assert la.det(m) == leibniz


def test_inverse_and_rank():
    rng = random.Random(1)
    for n in (2, 3, 4):
        m = rand_invertible(n, rng)
        assert la.matmul(m, la.inverse(m)) == la.identity(n)
        assert la.rank(m) == n
    with pytest.raises(la.SingularMatrixError):
        la.inverse(la.mat([[1, 2], [2, 4]]))
    assert la.rank(la.mat([[1, 2], [2, 4]])) == 1
    assert la.rank(la.zeros(3, 2)) == 0


def test_rank_matches_minor_rank():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = rand_matrix(n, rng, bound=2)
        by_minors = 0
        for k in range(1, n + 1):
            if any(x != 0 for x in la.all_minors(m, k)):
                by_minors = k
        assert la.rank(m) == by_minors


def test_ldu_reassembly_and_failure():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        m = rand_invertible(n, rng)
        try:
            l, d, u = la.ldu(m)
        except la.FactorizationError:
            assert any(
                la.minor(m, range(k), range(k)) == 0 for k in range(1, n + 1)
            )
            continue
        assert la.matmul(la.matmul(l, d), u) == m
        assert la.is_lower_triangular(l) and la.is_upper_triangular(u)
        assert la.is_diagonal(d)
        assert all(l[i][i] == 1 and u[i][i] == 1 for i in range(n))


def test_block_ldu_reassembly():
    rng = random.Random(4)
    blocks = [[0, 1], [2, 3]]
    for _ in range(30):
        m = rand_invertible(4, rng)
        try:
            l, d, u = la.block_ldu(m, blocks)
        except la.FactorizationError:
            assert la.det(la.submatrix(m, [0, 1], [0, 1])) == 0
            continue
        assert la.matmul(la.matmul(l, d), u) == m
        assert la.is_block_lower(l, blocks) and la.is_block_upper(u, blocks)
        assert la.is_block_lower(d, blocks) and la.is_block_upper(d, blocks)


def test_block_anti_ldu_unique_middle():
    """The two-sided reduction exists iff trailing block minors are nonzero,
    and its middle factor is unique."""
    rng = random.Random(5)
    blocks = [[0, 1], [2]]
    hits = 0
    for _ in range(40):
        m = rand_invertible(3, rng)
        trailing_ok = m[2][2] != 0 and la.det(m) != 0
        try:
            up, l, uq = la.block_anti_ldu(m, blocks)
        except la.FactorizationError:
            assert not trailing_ok
            continue
        hits += 1
        assert trailing_ok
        assert la.matmul(la.matmul(up, l), uq) == m
        assert la.is_block_upper(up, blocks) and la.is_block_lower(uq, blocks)
        # unipotent outer factors: identity diagonal blocks
        for blk in blocks:
            for i in blk:
                for j in blk:
                    want = Fraction(int(i == j))
                    assert up[i][j] == want and uq[i][j] == want
    assert hits > 10


def test_kernel_and_spans():
    m = la.mat([[1, 2, 3], [2, 4, 6]])
    k = la.kernel(m)
    assert la.dims(k) == (3, 2)
    for col in la.transpose(k):
        assert all(x == 0 for x in la.matvec(m, tuple(col)))

    a = la.mat([[1, 0], [0, 1], [0, 0]])
    b = la.mat([[0, 0], [1, 0], [0, 1]])
    inter = la.span_intersection(a, b)
    assert la.span_dim(inter) == 1
    assert la.in_span([tuple(col) for col in la.transpose(a)], (0, 1, 0))
    assert not la.in_span([tuple(col) for col in la.transpose(a)], (0, 0, 1))
    s = la.span_sum(a, b)
    assert la.span_dim(s) == 3


def test_reversal_involution():
    r = la.reversal(4)
    assert la.matmul(r, r) == la.identity(4)
    m = la.mat([[i * 4 + j for j in range(4)] for i in range(4)])
    rr = la.matmul(la.matmul(r, m), r)
    assert rr[0][0] == m[3][3] and rr[0][3] == m[3][0]


# ---------------------------------------------------------------------------
# oracles: Fraction Gaussian elimination, the naive row-by-column product and
# Laplace expansion, checked against the integer kernels


def gaussian_det(m):
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        result *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return sign * result


def laplace_det(m):
    if not m:
        return Fraction(1)
    rest = [row[1:] for row in m]
    return sum(
        (-1) ** i * m[i][0] * laplace_det(rest[:i] + rest[i + 1 :])
        for i in range(len(m))
    )


def naive_matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


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


@given(square_matrices())
def test_det_matches_gaussian_oracle(case):
    kind, m = case
    d = la.det(m)
    assert isinstance(d, Fraction)
    assert d == gaussian_det(m)
    if kind != "generic" and len(m) > 1:
        assert d == 0


@given(square_matrices(max_n=4))
def test_det_matches_laplace(case):
    _, m = case
    assert la.det(m) == laplace_det(m)


def test_det_empty_matrix_is_one():
    assert la.det(()) == 1


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_matmul_matches_naive_oracle(p, q, r, data):
    a = la.mat([[data.draw(rationals) for _ in range(q)] for _ in range(p)])
    b = la.mat([[data.draw(rationals) for _ in range(r)] for _ in range(q)])
    got = la.matmul(a, b)
    assert got == naive_matmul(a, b)
    assert la.dims(got) == (p, r)
    assert all(isinstance(x, Fraction) for row in got for x in row)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        la.matmul(la.zeros(2, 3), la.zeros(2, 3))
