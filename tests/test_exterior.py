import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st
from oracles import (
    dual_matrices,
    generator_x,
    generator_y,
    identity,
    laplace_det,
    lmat_from_rational,
    lmat_torus_curve,
    proj_equal,
    scale,
    square_matrices,
)

from tnncompact import linalg as la
from tnncompact.exterior import (
    _levi_weight_positions,
    UnsupportedStratumError,
    compound,
    compounds,
    embedding_data,
    proj_key,
    stratum_indicator,
    strictly_signed,
    subsets_colex,
)
from tnncompact.dual import dmat_compound
from tnncompact.laurent import Laurent, lmat_compound
from tnncompact.matgroup import GroupMatrix
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


def test_compound_of_degree_zero_is_the_int_one():
    """Degree 0 is the 1×1 matrix of the int 1, the degree-0 entry that
    ``iJ_of_point`` reads too, so the compounds of an int matrix are ints
    in every degree."""
    from tnncompact.strata import base_point, iJ_of_point

    m = ((1, 2), (3, 4))
    for k in range(3):
        assert all(type(x) is int for row in compound(m, k) for x in row)
    J = ParabolicSubset.of(3, [1, 2])
    data = embedding_data(J)
    assert data.k1 == 0
    degree_zero = iJ_of_point(base_point(J), data)[0]
    assert compound(m, 0) == degree_zero == ((1,),)
    assert type(degree_zero[0][0]) is int


def test_compound_identity_and_det():
    assert compound(identity(3), 2) == identity(3)
    g = la.mat([[1, 2], [1, 3]])
    assert compound(g, 2) == ((Fraction(1),),)


def test_compound_degree_zero_and_range():
    m = la.mat([[1, 2], [3, 4]])
    assert compound(m, 0) == ((1,),)
    assert compound(m, 1) == m
    assert list(compounds(m, 0)) == []
    for k in (-1, 3):
        with pytest.raises(ValueError):
            compound(m, k)


def test_compounds_refuse_a_ragged_or_non_square_matrix():
    """The minor ladder reads its matrix as n×n, so a rectangular or ragged
    one raises, as det and inverse do, under every name and degree."""
    for m in (((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4), (5, 6)), ((1, 2), (3,))):
        for f in (compound, compounds, lmat_compound, dmat_compound):
            for k in (0, 1, 2):
                with pytest.raises(ValueError):
                    f(m, k)


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


def int_matrices(n):
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@given(st.integers(1, 5).flatmap(int_matrices))
def test_compounds_of_int_matrices_stay_int(m):
    """Over the integers the ladder builds no Fraction: every minor is the
    int Laplace minor, of type int."""
    n = len(m)
    levels = list(compounds(m, n))
    _check_against(levels, n, lambda r, c: laplace_det(la.submatrix(m, r, c)))
    assert all(type(x) is int for lv in levels for row in lv for x in row)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            int_matrices(n), int_matrices(n), st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        )
    )
)
def test_laurent_compounds_match_laplace(case):
    """Constant Laurent matrices and torus curves m1·diag(s^e)·m2, whose
    entries share exponents and cancel, as in the limits suite."""
    m1, m2, e = case
    n = len(m1)
    for m in (lmat_from_rational(m1), lmat_torus_curve(m1, e, m2)):
        _check_against(
            list(compounds(m, n)), n, lambda r, c: laplace_det(la.submatrix(m, r, c))
        )


def test_compounds_of_a_one_by_one_matrix():
    """At n = 1 the ladder's degree-1 getter has one index, where
    itemgetter would return the entry itself instead of a 1-tuple."""
    for x in (5, Fraction(-2, 3), Laurent.monomial(-1, 2)):
        m = ((x,),)
        assert list(compounds(m, 1)) == [m]
        assert compound(m, 1) == m
        assert compound(m, 0) == ((Fraction(1),),)
    assert is_totally_positive(GroupMatrix(la.mat([[1]])))


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
    from tnncompact.matgroup import torus

    g = generator_y(3, 1, 1) @ torus([1, 1]) @ generator_x(3, 1, 1)
    assert not is_totally_positive(g)


def test_highest_weight_line_positive_on_upper_positive():
    rng = random.Random(5)
    from tnncompact.matgroup import torus
    from tnncompact.tnn import rand_pos_fraction, sample_Uplus_gt0

    for n in (2, 3, 4):
        b = torus([rand_pos_fraction(rng) for _ in range(n - 1)]) @ sample_Uplus_gt0(n, rng)
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
    assert stratum_indicator(data3.J, data3.k2) == identity(3)
    with pytest.raises(UnsupportedStratumError):
        embedding_data(ParabolicSubset.of(3, []))


def test_stratum_indicator_matches_embedding_projectors():
    J = ParabolicSubset.of(3, [1])
    assert stratum_indicator(J, 1) == stratum_indicator(J, embedding_data(J).k2)
    d2 = stratum_indicator(J, 2)
    assert d2 == la.mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    full = ParabolicSubset.of(3, [1, 2])
    assert stratum_indicator(full, 1) == identity(3)
    assert stratum_indicator(full, 2) == identity(3)


def test_cached_positions_are_the_stratum_indicator_diagonal():
    for n in range(2, 6):
        for J in all_parabolic_subsets(n):
            for k in range(1, n):
                d = stratum_indicator(J, k)
                assert _levi_weight_positions(n, k, J) == tuple(
                    s for s in range(len(d)) if d[s][s]
                ), (J, k)


def integer_form(m):
    """The integer matrix d·m, d the lcm of m's denominators."""
    return tuple(map(tuple, la._integer_form(m)[0]))


def test_proj_helpers():
    a = la.mat([[1, 2], [3, 4]])
    assert proj_equal(a, scale(a, Fraction(-7, 3)))
    assert not proj_equal(a, identity(2))
    assert proj_key(integer_form(a)) == proj_key(integer_form(scale(a, Fraction(-7, 3))))
    assert proj_key(integer_form(a)) == ((1, 2), (3, 4))
    assert proj_key(integer_form(((0, -4), (6, Fraction(2, 3))))) == ((0, 6), (-9, -1))
    assert strictly_signed(scale(a, Fraction(-1)))
    assert not strictly_signed(la.mat([[1, 0], [2, 3]]))


def test_proj_key_of_the_zero_matrix_raises_value_error():
    """The zero matrix is no projective point.  A StopIteration would end
    the ``map`` that builds a key tuple and silently truncate the tuple."""
    with pytest.raises(ValueError):
        proj_key(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        tuple(map(proj_key, [((1,),), ((0,),), ((2,),)]))


@given(square_matrices(max_n=3), square_matrices(max_n=3), st.fractions().filter(bool))
def test_proj_key_is_the_projective_point(a, b, c):
    """Two nonzero integer matrices have one key exactly when the oracle's
    cross-multiplication calls the rational matrices they clear one
    projective point; a key is an integer matrix of a's shape, and the
    integer form of a nonzero multiple c·a has a's key."""
    (_, a), (_, b) = a, b
    if not any(map(any, a)) or not any(map(any, b)):
        return
    key = proj_key(integer_form(a))
    assert proj_key(integer_form(scale(a, c))) == key
    assert all(type(x) is int for row in key for x in row)
    assert la.dims(key) == la.dims(a)
    assert (key == proj_key(integer_form(b))) == proj_equal(a, b)
