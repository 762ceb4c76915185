from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import laplace_det, lmat_from_rational

from tnncompact import linalg as la
from tnncompact.exterior import compounds, subsets_colex
from tnncompact.laurent import (
    Laurent,
    lmat_compound,
    lmat_det,
    lmat_limit,
    lmat_mul,
)

coeff_dicts = st.dictionaries(
    st.integers(-3, 3),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4),
    max_size=4,
)


@given(coeff_dicts, coeff_dicts, coeff_dicts)
def test_ring_axioms(a, b, c):
    x, y, z = Laurent.of(a), Laurent.of(b), Laurent.of(c)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == Laurent.of(0)


def test_valuation_and_limit():
    x = Laurent.of({-2: Fraction(3), 1: Fraction(5)})
    assert x.valuation() == -2 and x.coeff(-2) == 3
    m = (
        (Laurent.monomial(-1), Laurent.of(1)),
        (Laurent.of(0), Laurent.monomial(-1, 2)),
    )
    assert lmat_limit(m) == la.mat([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        Laurent.of(0).valuation()
    # coefficients are exact: a string or a float is refused, as by linalg.frac
    for bad in ("1/2", {0: "1/2"}, 0.5):
        with pytest.raises(TypeError):
            Laurent.of(bad)


@pytest.mark.parametrize("bad", [{2.9: 1}, {"3": 1}, {True: 5}, {Fraction(2): 1}])
def test_exponents_that_are_not_ints_are_refused(bad):
    """A float, string, bool or Fraction exponent raises TypeError; none is
    truncated to an int (2.9 to s², True to s)."""
    with pytest.raises(TypeError):
        Laurent.of(bad)


def test_det_and_compound_vs_rational():
    m = la.mat([[1, 2, 0], [3, 4, 1], [0, 1, 5]])
    lm = lmat_from_rational(m)
    assert lmat_det(lm) == Laurent.of(la.det(m))
    from tnncompact.exterior import compound

    got = lmat_compound(lm, 2)
    expect = compound(m, 2)
    assert all(
        got[i][j] == Laurent.of(expect[i][j])
        for i in range(3)
        for j in range(3)
    )


def test_torus_curve_det_is_monomial():
    curve = (
        (Laurent.monomial(-3), Laurent.of(0)),
        (Laurent.of(0), Laurent.monomial(-1)),
    )
    m = la.mat([[1, 1], [1, 2]])
    g = lmat_from_rational(m)
    x = lmat_mul(lmat_mul(g, curve), g)
    d = lmat_det(x)
    assert d
    assert d == Laurent.monomial(-4)


laurents = coeff_dicts.map(Laurent.of)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(laurents, min_size=n, max_size=n).map(tuple),
                       min_size=n, max_size=n).map(tuple)
))
def test_compounds_and_det_match_laplace(m):
    n = len(m)
    assert lmat_det(m) == laplace_det(m)
    for k, level in enumerate(compounds(m, n), start=1):
        assert level == lmat_compound(m, k)
        subs = subsets_colex(n, k)
        for s, row in zip(subs, level):
            for t, x in zip(subs, row):
                sub = la.submatrix(m, [i - 1 for i in s], [j - 1 for j in t])
                assert x == laplace_det(sub)


def test_bool_is_nonzero():
    assert not Laurent.of(0)
    assert Laurent.monomial(-2) and Laurent.of({3: Fraction(1, 2)})


int_coeff_dicts = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=4)


@given(int_coeff_dicts, int_coeff_dicts)
def test_int_coefficients_match_fractions(a, b):
    """Ring results keep int coefficients; they must equal the Fraction
    polynomials that Laurent.of builds from the same data."""
    x, y = (Laurent(tuple(sorted((e, c) for e, c in d.items() if c))) for d in (a, b))
    fx, fy = (Laurent.of({e: Fraction(c) for e, c in d.items()}) for d in (a, b))
    assert x == fx and y == fy
    for got, want in ((x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy)):
        assert got == want
        assert all(type(c) is int for _, c in got.coeffs)
        assert all(c != 0 for _, c in got.coeffs)
