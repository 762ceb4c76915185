import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st
from oracles import dual_matrices, laplace_det, square_matrices

from tnncompact import linalg as la
from tnncompact.exterior import (
    _levi_weight_positions,
    UnsupportedStratumError,
    compound,
    compounds,
    embedding_data,
    proj_equal,
    stratum_indicator,
    strictly_signed,
    subsets_colex,
)
from tnncompact.matgroup import generator_x
from tnncompact.tnn import is_totally_positive, sample_G_gt0
from tnncompact.weyl import ParabolicSubset, all_parabolic_subsets


def rand_invertible(n, rng):
    while True:
        m = la.mat(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if la.det(m) != 0:
            return m


def test_colex_order():
    assert subsets_colex(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert subsets_colex(4, 2)[0] == (1, 2)
    for n in (3, 4, 5):
        for k in range(n + 1):
            subs = subsets_colex(n, k)
            assert len(subs) == comb(n, k)
            assert subs[0] == tuple(range(1, k + 1))


def test_compound_identity_and_det():
    assert compound(la.identity(3), 2) == la.identity(3)
    g = la.mat([[1, 2], [1, 3]])
    assert compound(g, 2) == ((Fraction(1),),)


def test_compound_degree_zero_and_range():
    m = la.mat([[1, 2], [3, 4]])
    assert compound(m, 0) == ((Fraction(1),),)
    assert compound(m, 1) == m
    assert list(compounds(m, 0)) == []
    for k in (-1, 3):
        with pytest.raises(ValueError):
            compound(m, k)


def _check_against(levels, n, minor):
    assert len(levels) == n
    for k, level in enumerate(levels, start=1):
        subs = subsets_colex(n, k)
        assert la.dims(level) == (len(subs), len(subs))
        for s, row in zip(subs, level):
            for t, x in zip(subs, row):
                assert x == minor([i - 1 for i in s], [j - 1 for j in t])


@given(square_matrices())
def test_compounds_match_bareiss_minors(case):
    """Every entry of the ladder over Q equals the integer-Bareiss minor,
    on singular, zero-row, zero-column and dependent matrices too."""
    _, m = case
    levels = list(compounds(m, len(m)))
    _check_against(levels, len(m), lambda r, c: la.minor(m, r, c))
    assert all(isinstance(x, Fraction) for lv in levels for row in lv for x in row)
    assert compound(m, len(m)) == levels[-1]


@given(st.integers(1, 4).flatmap(lambda n: dual_matrices(n, n)))
def test_dual_compounds_match_laplace(m):
    """Dual entries with value 0 and a nonzero gradient take part in the
    ladder: the gradients of the minors match the Laplace reference."""
    n = len(m)
    _check_against(
        list(compounds(m, n)), n, lambda r, c: laplace_det(la.submatrix(m, r, c))
    )


def test_compound_x1_in_wedge_two():
    a = Fraction(5, 2)
    c = compound(generator_x(3, 1, a).m, 2)
    # basis (12, 13, 23): fixes e1^e2 and e1^e3; e2^e3 -> e2^e3 + a e1^e3
    expect = la.mat([[1, 0, 0], [0, 1, a], [0, 0, 1]])
    assert c == expect


def test_cauchy_binet_500():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        a, b = rand_invertible(n, rng), rand_invertible(n, rng)
        ab = la.matmul(a, b)
        for k in range(n + 1):
            assert compound(ab, k) == la.matmul(compound(a, k), compound(b, k))


def test_compound_transpose():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.choice([3, 4])
        a = rand_invertible(n, rng)
        for k in range(n + 1):
            assert compound(la.transpose(a), k) == la.transpose(compound(a, k))


def test_total_positivity_iff_compound_entries():
    rng = random.Random(31)
    for n in (2, 3, 4):
        g = sample_G_gt0(n, rng)
        assert is_totally_positive(g)
        for k in range(1, n):
            assert all(x > 0 for row in compound(g.m, k) for x in row)
    # borderline TNN element fails the strict test
    from tnncompact.matgroup import generator_y, torus

    g = generator_y(3, 1, 1) @ torus([1, 1]) @ generator_x(3, 1, 1)
    assert not is_totally_positive(g)


def test_highest_weight_line_positive_on_upper_positive():
    rng = random.Random(5)
    from tnncompact.tnn import sample_Uplus_gt0, sample_T_gt0

    for n in (2, 3, 4):
        b = sample_T_gt0(n, rng) @ sample_Uplus_gt0(n, rng)
        for k in range(1, n):
            c = compound(b.m, k)
            assert c[0][0] > 0
            assert all(c[i][0] == 0 for i in range(1, len(c)))


@pytest.mark.parametrize(
    "n,js,k1,k2,n0",
    [
        (2, [], 1, 0, 1),
        (2, [1], 0, 1, 2),
        (3, [1], 2, 1, 2),
        (3, [2], 1, 2, 2),
        (3, [1, 2], 0, 1, 3),
    ],
)
def test_embedding_data_shapes(n, js, k1, k2, n0):
    """The degrees of the pair, and I_L keeping the leading n0 colex basis
    vectors of Λ^k2."""
    data = embedding_data(ParabolicSubset.of(n, js))
    assert (data.k1, data.k2) == (k1, k2)
    dim = comb(n, k2)
    il = stratum_indicator(data.J, data.k2)
    assert [il[i][i] for i in range(dim)] == [1] * n0 + [0] * (dim - n0)


# (k1, k2) of every stratum with a (*) pair at n = 2..5.
STAR_DEGREES = {
    (2, ()): (1, 0),
    (2, (1,)): (0, 1),
    (3, (1,)): (2, 1),
    (3, (2,)): (1, 2),
    (3, (1, 2)): (0, 1),
    (4, (1, 2, 3)): (0, 1),
    (5, (1, 2, 3, 4)): (0, 1),
}


def test_embedding_data_support_and_degrees():
    """embedding_data exists exactly when |I−J| ≤ 1 and (|J| ≤ 1 or J = I),
    with the degrees of the table; every other J at n = 2..5 raises.  I_1
    is the rank-one projector onto the highest weight line."""
    seen = set()
    for n in range(2, 6):
        full = frozenset(range(1, n))
        for J in all_parabolic_subsets(n):
            key = (n, tuple(sorted(J.J)))
            if len(full - J.J) <= 1 and (len(J.J) <= 1 or J.J == full):
                seen.add(key)
                data = embedding_data(J)
                assert (data.J, data.k1, data.k2) == (J, *STAR_DEGREES[key]), key
                dim = comb(n, data.k1)
                assert stratum_indicator(J, data.k1) == tuple(
                    tuple(Fraction(int(i == j == 0)) for j in range(dim)) for i in range(dim)
                ), key
            else:
                with pytest.raises(UnsupportedStratumError):
                    embedding_data(J)
    assert seen == set(STAR_DEGREES)


def test_embedding_data_spec_examples():
    data = embedding_data(ParabolicSubset.of(3, [1]))
    assert stratum_indicator(data.J, data.k2) == la.mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    data2 = embedding_data(ParabolicSubset.of(2, []))
    assert stratum_indicator(data2.J, data2.k2) == ((Fraction(1),),)
    data3 = embedding_data(ParabolicSubset.of(3, [1, 2]))
    assert stratum_indicator(data3.J, data3.k2) == la.identity(3)
    with pytest.raises(UnsupportedStratumError):
        embedding_data(ParabolicSubset.of(3, []))


def test_stratum_indicator_matches_embedding_projectors():
    J = ParabolicSubset.of(3, [1])
    assert stratum_indicator(J, 1) == stratum_indicator(J, embedding_data(J).k2)
    d2 = stratum_indicator(J, 2)
    assert d2 == la.mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    full = ParabolicSubset.of(3, [1, 2])
    assert stratum_indicator(full, 1) == la.identity(3)
    assert stratum_indicator(full, 2) == la.identity(3)


def test_cached_positions_are_the_stratum_indicator_diagonal():
    for n in range(2, 6):
        for J in all_parabolic_subsets(n):
            for k in range(1, n):
                d = stratum_indicator(J, k)
                assert _levi_weight_positions(n, k, J) == tuple(
                    s for s in range(len(d)) if d[s][s]
                ), (J, k)


def test_proj_helpers():
    a = la.mat([[1, 2], [3, 4]])
    assert proj_equal(a, la.scale(a, Fraction(-7, 3)))
    assert not proj_equal(a, la.identity(2))
    assert strictly_signed(la.scale(a, Fraction(-1)))
    assert not strictly_signed(la.mat([[1, 0], [2, 3]]))
