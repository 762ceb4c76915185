import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st
from oracles import (
    block_anti_ldu,
    block_ldu,
    curve_exponents,
    dual_matrices,
    gauss_jordan_inverse,
    identity,
    is_block_lower,
    is_block_upper,
    is_diagonal,
    is_lower_triangular,
    laplace_det,
    lmat_from_rational,
    lmat_torus_curve,
    naive_matmul,
    rationals,
    reversal,
    square_matrices,
)

from tnncompact import linalg as la
from tnncompact.laurent import Laurent
from tnncompact.weyl import all_parabolic_subsets


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
        assert la.matmul(m, la.inverse(m)) == identity(n)
        assert la.rank(m) == n
    with pytest.raises(la.SingularMatrixError):
        la.inverse(la.mat([[1, 2], [2, 4]]))
    assert la.rank(la.mat([[1, 2], [2, 4]])) == 1
    assert la.rank(la.zeros(3, 2)) == 0


def rand_dense(n, rng):
    """Every entry nonzero, denominators up to 7."""
    return la.mat(
        [
            [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inverse_matches_gauss_jordan_oracle(n):
    rng = random.Random(40 + n)
    for _ in range(60):
        m = rand_dense(n, rng)
        if la.det(m) != 0:
            assert la.inverse(m) == gauss_jordan_inverse(m)
    for _ in range(20):
        m = [list(row) for row in rand_dense(n, rng)]
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        m[i] = [c * x for x in m[j]]
        with pytest.raises(la.SingularMatrixError):
            la.inverse(la.mat(m))


@given(square_matrices())
def test_inverse_matches_gauss_jordan_on_any_matrix(case):
    _, m = case
    try:
        want = gauss_jordan_inverse(m)
    except la.SingularMatrixError:
        with pytest.raises(la.SingularMatrixError):
            la.inverse(m)
        return
    got = la.inverse(m)
    assert got == want
    assert all(isinstance(x, Fraction) for row in got for x in row)


def test_rank_matches_minor_rank():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = rand_matrix(n, rng, bound=2)
        by_minors = 0
        for k in range(1, n + 1):
            subsets = list(combinations(range(n), k))
            if any(la.minor(m, r, c) != 0 for r in subsets for c in subsets):
                by_minors = k
        assert la.rank(m) == by_minors


def minor_rank(m):
    """The largest k with a nonzero k×k minor, by Laplace expansion."""
    nr, nc = la.dims(m)
    return max(
        (
            k
            for k in range(1, min(nr, nc) + 1)
            for r in combinations(range(nr), k)
            for c in combinations(range(nc), k)
            if laplace_det(la.submatrix(m, r, c)) != 0
        ),
        default=0,
    )


@st.composite
def rectangular_matrices(draw):
    """Tall, wide and square rational matrices with zero columns, zero rows
    and rows combined from the others."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=3))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=nc)):
        for row in rows:
            row[j] = Fraction(0)
    if draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [Fraction(0)] * nc
    for _ in range(draw(st.integers(0, nr - 1))):
        i = draw(st.integers(0, nr - 1))
        coefs = [draw(entries) if t != i else 0 for t in range(nr)]
        rows[i] = [sum(a * row[j] for a, row in zip(coefs, rows)) for j in range(nc)]
    return la.mat(rows)


@given(rectangular_matrices())
def test_rank_matches_minor_rank_on_rectangular_matrices(m):
    assert la.rank(m) == minor_rank(m)
    assert la.rank(la.transpose(m)) == minor_rank(m)


@st.composite
def integer_matrices(draw):
    """Tall, wide and square int matrices with entries up to ±10^40, some
    of them singular: a row is a combination of the others."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and draw(st.booleans()):
        i = draw(st.integers(0, nr - 1))
        coefs = [draw(st.integers(-3, 3)) if t != i else 0 for t in range(nr)]
        rows[i] = [sum(a * row[j] for a, row in zip(coefs, rows)) for j in range(nc)]
    return tuple(map(tuple, rows))


def _refuse(*args, **kwargs):
    raise AssertionError("the all-int rank built a Fraction or cleared denominators")


@given(integer_matrices())
def test_rank_of_an_int_matrix_clears_no_denominators(m):
    """An all-int matrix is eliminated as it is: the rank is that of the
    denominator-clearing route, with no ``_integer_rows`` call and no
    Fraction built."""
    want = la._eliminate(la._integer_rows(m)[0], la.dims(m)[1])[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_integer_rows", _refuse)
        mp.setattr(Fraction, "__new__", _refuse)
        got = la.rank(m)
    assert got == want


@given(rectangular_matrices(), st.data())
def test_rank_of_a_fraction_or_mixed_matrix_clears_denominators(m, data):
    """Fraction input, and int input with one Fraction in it, keep the
    ``_integer_rows`` route."""
    mixed = tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in m)
    i = data.draw(st.integers(0, len(m) - 1))
    mixed = mixed[:i] + ((Fraction(mixed[i][0]),) + mixed[i][1:],) + mixed[i + 1:]
    calls = []
    route = la._integer_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_integer_rows", lambda a: calls.append(a) or route(a))
        assert la.rank(m) == la.rank(mixed) == minor_rank(m)
    assert calls == [m, mixed]


def test_tangent_rank_takes_the_fraction_route(monkeypatch):
    """The exact tangent rank's rows hold Fractions, so its rank clears
    denominators: here on the chart words at the one point that
    ``jacobian_rank_check(label, 0)`` ranks, the coordinates of
    ``sample_cell(label, 0)``, drawn from Random(0)."""
    from tnncompact.cells import _chart, _chart_words, _tangent_rank, dimension_of, top_label
    from tnncompact.tnn import rand_pos_fraction
    from tnncompact.weyl import ParabolicSubset

    label = top_label(ParabolicSubset.of(3, [1]))
    rng = random.Random(0)
    vals = [rand_pos_fraction(rng) for _ in range(dimension_of(label))]
    words = _chart_words(_chart(label, vals, Fraction(1)))
    calls = []
    route = la._integer_rows
    monkeypatch.setattr(la, "_integer_rows", lambda a: calls.append(a) or route(a))
    assert _tangent_rank(label.J, *words) == dimension_of(label)
    assert calls and any(type(x) is Fraction for row in calls[-1] for x in row)


@given(st.one_of(integer_matrices(), rectangular_matrices()), st.sampled_from([2, 3, 5, 2**61 - 1]))
def test_rank_mod_p_never_exceeds_the_rank(m, p):
    """Reduction mod p can only lower a rank: on int and Fraction matrices,
    tall and wide, the rank over Z/p of the rows with denominators cleared
    is at most the exact rank.  The Jacobian check's full-rank certificate
    rests on this."""
    assert la._rank_mod_p(la._integer_rows(m)[0], p) <= la.rank(m)


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
        assert is_lower_triangular(l) and la.is_upper_triangular(u)
        assert is_diagonal(d)
        assert all(l[i][i] == 1 and u[i][i] == 1 for i in range(n))


def test_block_ldu_reassembly():
    """The oracle's leading block LDU reassembles m, and its middle factor
    is levi_part's of the reversed matrix with the blocks reversed."""
    rng = random.Random(4)
    blocks, rev_blocks = [[0, 1], [2], [3]], [[0], [1], [2, 3]]
    r = reversal(4)
    hits = 0
    for _ in range(30):
        m = rand_invertible(4, rng)
        rmr = la.matmul(la.matmul(r, m), r)
        try:
            l, d, u = block_ldu(m, blocks)
        except la.FactorizationError:
            assert any(la.minor(m, range(k), range(k)) == 0 for k in (2, 3))
            with pytest.raises(la.FactorizationError):
                la.levi_part(rmr, rev_blocks)
            continue
        hits += 1
        assert la.matmul(la.matmul(l, d), u) == m
        assert is_block_lower(l, blocks) and is_block_upper(u, blocks)
        assert is_block_lower(d, blocks) and is_block_upper(d, blocks)
        assert la.levi_part(rmr, rev_blocks) == la.matmul(la.matmul(r, d), r)
    assert hits > 10


def test_block_anti_ldu_unique_middle():
    """The two-sided reduction exists iff the trailing block Schur
    complements are invertible, and levi_part is its unique middle factor."""
    rng = random.Random(5)
    blocks = [[0, 1], [2]]
    hits = 0
    for _ in range(40):
        m = rand_invertible(3, rng)
        trailing_ok = m[2][2] != 0 and la.det(m) != 0
        try:
            up, l, uq = block_anti_ldu(m, blocks)
        except la.FactorizationError:
            assert not trailing_ok
            with pytest.raises(la.FactorizationError):
                la.levi_part(m, blocks)
            continue
        hits += 1
        assert trailing_ok
        assert la.levi_part(m, blocks) == l
        assert la.matmul(la.matmul(up, l), uq) == m
        assert is_block_upper(up, blocks) and is_block_lower(uq, blocks)
        # unipotent outer factors: identity diagonal blocks
        for blk in blocks:
            for i in blk:
                for j in blk:
                    want = Fraction(int(i == j))
                    assert up[i][j] == want and uq[i][j] == want
    assert hits > 10


def _singular_trailing(m, blocks, rng):
    """m with its trailing block made singular: the last row of the block
    replaced by a random combination of its other rows (zero for a 1×1)."""
    rows = [list(row) for row in m]
    blk = blocks[-1]
    last = blk[-1]
    coefs = [Fraction(rng.randint(-3, 3)) for _ in blk[:-1]]
    for j in blk:
        rows[last][j] = sum((c * rows[i][j] for c, i in zip(coefs, blk)), Fraction(0))
    return la.mat(rows)


def _two_sided_factors(blocks, rng, singular=None):
    """Random u_p (block-upper-unipotent), l (block-diagonal, its block
    number ``singular`` singular, the others invertible) and u_q
    (block-lower-unipotent)."""
    n = blocks[-1][-1] + 1
    block = {i: k for k, blk in enumerate(blocks) for i in blk}
    l = [[Fraction(0)] * n for _ in range(n)]
    for k, blk in enumerate(blocks):
        d = rand_invertible(len(blk), rng)
        if k == singular:
            d = _singular_trailing(d, [list(range(len(blk)))], rng)
        for ti, i in enumerate(blk):
            for tj, j in enumerate(blk):
                l[i][j] = d[ti][tj]

    def unipotent(keep):
        def entry(i, j):
            if i == j:
                return 1
            return rng.randint(-3, 3) if keep(block[i], block[j]) else 0

        return la.mat([[entry(i, j) for j in range(n)] for i in range(n)])

    return unipotent(lambda bi, bj: bi < bj), la.mat(l), unipotent(lambda bi, bj: bi > bj)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_levi_part_matches_two_sided_oracle(n):
    """For every J, levi_part equals the middle factor of the oracle's
    u_p·l·u_q and raises exactly when the oracle does: on random rational
    matrices, singular ones among them, on matrices whose trailing block
    is singular, and on reassembled u_p·l·u_q with one Levi block singular."""
    rng = random.Random(70 + n)
    outcomes = set()
    for J in all_parabolic_subsets(n):
        blocks = J.blocks0()
        cases = [rand_matrix(n, rng, bound=2) for _ in range(12)]
        cases += [_singular_trailing(rand_matrix(n, rng), blocks, rng) for _ in range(3)]
        for case in cases:
            try:
                _, want, _ = block_anti_ldu(case, blocks)
            except la.FactorizationError:
                outcomes.add(False)
                with pytest.raises(la.FactorizationError):
                    la.levi_part(case, blocks)
                continue
            outcomes.add(True)
            assert la.levi_part(case, blocks) == want
        for k in [None, *range(len(blocks))]:
            up, l, uq = _two_sided_factors(blocks, rng, singular=k)
            m = la.matmul(la.matmul(up, l), uq)
            if k is None:
                assert la.levi_part(m, blocks) == l
                assert block_anti_ldu(m, blocks)[1] == l
                continue
            with pytest.raises(la.FactorizationError):
                block_anti_ldu(m, blocks)
            with pytest.raises(la.FactorizationError):
                la.levi_part(m, blocks)
    assert outcomes == {True, False}


def test_kernel_and_spans():
    m = la.mat([[1, 2, 3], [2, 4, 6]])
    k = la.kernel(m)
    assert la.dims(k) == (3, 2)
    assert all(x == 0 for row in la.matmul(m, k) for x in row)

    a = la.mat([[1, 0], [0, 1], [0, 0]])
    b = la.mat([[0, 0], [1, 0], [0, 1]])
    inter = la.span_intersection(a, b)
    assert la.rank(inter) == 1
    assert la.in_span([tuple(col) for col in la.transpose(a)], (0, 1, 0))
    assert not la.in_span([tuple(col) for col in la.transpose(a)], (0, 0, 1))
    assert la.rank(tuple(ra + rb for ra, rb in zip(a, b))) == 3


# ---------------------------------------------------------------------------
# oracles: Fraction Gaussian elimination, the naive row-by-column product and
# Laplace expansion (tests/oracles.py), checked against the integer kernels


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


big_ints = st.integers(10**20, 10**40).flatmap(lambda k: st.sampled_from([k, -k]))
exact_ints = st.one_of(st.integers(-9, 9), big_ints)


def draw_operand(data, nr, nc, ints_only=False):
    """An nr×nc matrix of Fractions and ints (of ints alone if ints_only),
    dense or with the zero patterns the group layer multiplies: a zero row
    or column, unipotent triangular, or all zero."""
    entries = exact_ints if ints_only else st.one_of(rationals, exact_ints)
    zero = 0 if ints_only else Fraction(0)
    rows = [[data.draw(entries) for _ in range(nc)] for _ in range(nr)]
    kind = data.draw(st.sampled_from(["dense", "zero_row", "zero_col", "upper", "lower", "zero"]))
    if kind == "zero_row" and nr:
        rows[data.draw(st.integers(0, nr - 1))] = [0] * nc
    elif kind == "zero_col" and nc:
        j = data.draw(st.integers(0, nc - 1))
        for row in rows:
            row[j] = zero
    elif kind in ("upper", "lower"):
        keep = (lambda i, j: i < j) if kind == "upper" else (lambda i, j: i > j)
        rows = [
            [x if keep(i, j) else int(i == j) for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    elif kind == "zero":
        rows = [[zero] * nc for _ in range(nr)]
    return tuple(map(tuple, rows))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.booleans(), st.data())
def test_matmul_matches_naive_oracle(p, q, r, ints_only, data):
    """With ints alone (negative and big ones too), every entry is an int.
    The right operand may have no columns.  As constant Laurent
    polynomials, the operands multiply as their coefficients do."""
    a = draw_operand(data, p, q, ints_only)
    b = draw_operand(data, q, r, ints_only)
    got = la.matmul(a, b)
    assert got == naive_matmul(a, b)
    assert la.dims(got) == (p, r)
    if not any(type(x) is Fraction for m in (a, b) for row in m for x in row):
        assert all(type(x) is int for row in got for x in row)
    left, right = lmat_from_rational(a), lmat_from_rational(b)
    assert la.matmul(left, right) == naive_matmul(left, right) == lmat_from_rational(got)


def test_matmul_keeps_ints():
    got = la.matmul(((1, 2), (0, 4)), ((5,), (6,)))
    assert got == ((17,), (24,))
    assert all(type(x) is int for row in got for x in row)
    big = 10**40
    got = la.matmul(((-big, 3), (0, -1)), ((big, -2), (big, 5)))
    assert got == ((-(big**2) + 3 * big, 2 * big + 15), (-big, -5))
    assert all(type(x) is int for row in got for x in row)
    assert la.matmul(((1,), (-2,)), ((),)) == ((), ())


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        la.matmul(la.zeros(2, 3), la.zeros(2, 3))


def test_matmul_empty_inner_dimension():
    assert la.matmul(((), ()), ()) == ((), ())


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_matmul_over_duals_matches_naive_oracle(p, q, r, data):
    """Entries with value 0 and a nonzero gradient are not skipped."""
    a = data.draw(dual_matrices(p, q))
    b = data.draw(dual_matrices(q, r))
    assert la.matmul(a, b) == naive_matmul(a, b)


@given(st.integers(2, 4), st.data())
def test_matmul_over_a_torus_curve_matches_naive_oracle(n, data):
    """M1·diag(s^{−e})·M2 as the ``limits`` suite builds it: M1 with its
    columns scaled by s^{−e_j}, times M2 as constants; entry (i, j) holds
    M1[i][l]·M2[l][j] at the exponent −e_l."""
    c = data.draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
    m1, m2 = draw_operand(data, n, n, True), draw_operand(data, n, n, True)
    e = curve_exponents(c)
    scaled = tuple(tuple(Laurent.monomial(-ej, x) for x, ej in zip(row, e)) for row in m1)
    got = la.matmul(scaled, lmat_from_rational(m2))
    assert got == naive_matmul(scaled, lmat_from_rational(m2))
    assert got == lmat_torus_curve(m1, [-x for x in e], m2)


def test_matmul_keeps_zero_value_dual():
    from tnncompact.dual import Dual

    eps = Dual(Fraction(0), (Fraction(1),))
    one = Dual.const(1, 1)
    got = la.matmul(((eps,),), ((one,),))
    assert got == ((eps,),) and got[0][0]
    assert not Dual.const(0, 1)
