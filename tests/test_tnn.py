import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import (
    fraction_is_tnn,
    fraction_is_totally_positive,
    gauss_jordan_inverse,
    naive_matmul,
    sdot_matrix,
    square_matrices,
    torus_matrix,
    x_matrix,
    y_matrix,
)

from tnncompact import linalg as la
from tnncompact.matgroup import (
    FlagPoint,
    _trusted,
    _word_element,
    borel_minus,
    borel_plus,
    bruhat_cell,
    bruhat_position,
    generator_x,
    generator_y,
    identity_g,
    pi_factor,
    sdot,
    torus,
)
from tnncompact.tnn import (
    DoubleCellPoint,
    MRChart,
    ParamError,
    double_cell_evaluate,
    in_unipotent_cell,
    is_tnn_matrix,
    is_totally_nonneg,
    is_totally_positive,
    mr_chart,
    mr_evaluate,
    phi_minus,
    phi_plus,
    rand_pos_fraction,
    sample_G_gt0,
    sample_L_ge0,
    sample_T_gt0,
)
from tnncompact.weyl import (
    ParabolicSubset,
    ReducedWord,
    WeylElement,
    all_reduced_words,
    all_weyl,
    bruhat_leq,
    identity_w,
    longest_w,
    positive_subexpression,
    simple_reflection,
)

pos_fracs = st.fractions(
    min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=5
)


def test_phi_basics():
    word = ReducedWord(3, (1, 2, 1))
    assert phi_plus(word, [0, 0, 0]) == identity_g(3)
    assert phi_plus(ReducedWord(2, (1,)), [3]) == generator_x(2, 1, 3)
    with pytest.raises(ParamError):
        phi_plus(word, [1, 2])
    with pytest.raises(ParamError):
        phi_plus(word, [1, -1, 2])


@given(pos_fracs, pos_fracs, pos_fracs)
def test_phi_word_independence_rank_two(a, b, c):
    """x_1(a)x_2(b)x_1(c) = x_2(bc/(a+c)) x_1(a+c) x_2(ab/(a+c))."""
    lhs = phi_plus(ReducedWord(3, (1, 2, 1)), [a, b, c])
    ap = a + c
    bp = b * c / (a + c)
    cp = a * b / (a + c)
    rhs = phi_plus(ReducedWord(3, (2, 1, 2)), [bp, ap, cp])
    assert lhs == rhs


def test_sample_G_gt0_spec_case():
    # y_1(1)·1·x_1(1) = [[1,1],[1,2]]
    g = generator_y(2, 1, 1) @ torus([1]) @ generator_x(2, 1, 1)
    assert g.m == la.mat([[1, 1], [1, 2]])
    assert is_totally_positive(g)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sample_G_gt0_minors_products_psi(n):
    rng = random.Random(100 + n)
    for _ in range(15):
        g = sample_G_gt0(n, rng)
        h = sample_G_gt0(n, rng)
        assert is_totally_positive(g)
        assert is_totally_positive(g @ h)
        assert is_totally_positive(g.T)


@given(square_matrices())
def test_integer_minor_tests_match_the_fraction_ladder(case):
    """The minor tests run on cleared denominators; signs must be those of
    the rational ladder, on the matrices and on their absolute values."""
    _, m = case
    for a in (m, tuple(tuple(abs(x) for x in row) for row in m)):
        assert is_tnn_matrix(a) == fraction_is_tnn(a)
        g = _trusted(a)
        assert is_totally_positive(g) == fraction_is_totally_positive(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integer_minor_tests_match_the_fraction_ladder_on_samples(n):
    """Strictly positive, nonnegative-with-zero-minors and negated samples."""
    rng = random.Random(90 + n)
    full = ParabolicSubset.of(n, range(1, n))
    for _ in range(8):
        g, l = sample_G_gt0(n, rng), sample_L_ge0(full, rng)
        for h in (g, l, g @ l, _trusted(la.scale(g.m, Fraction(-1)))):
            assert is_tnn_matrix(h.m) == fraction_is_tnn(h.m)
            assert is_totally_positive(h) == fraction_is_totally_positive(h)


def test_mr_evaluate_spec_cases():
    # n=2, word (1), v=e, a=(2) -> y_1(2)
    word = ReducedWord(2, (1,))
    psub = positive_subexpression(word, identity_w(2))
    g = mr_evaluate(MRChart(psub, (Fraction(2),)))
    assert g == generator_y(2, 1, 2)
    assert bruhat_position(borel_plus(2), FlagPoint(g)) == simple_reflection(2, 1)
    assert bruhat_position(borel_minus(2), FlagPoint(g)) == longest_w(2)

    # v = s_1: no coordinates, evaluates to sdot
    psub2 = positive_subexpression(word, simple_reflection(2, 1))
    assert mr_evaluate(MRChart(psub2, ())) == sdot(2, 1)

    # n=3, word (1,2,1), v=s_1: y_1 y_2 sdot(1), classifies to (v,w)=(s_1,w_0)
    word3 = ReducedWord(3, (1, 2, 1))
    psub3 = positive_subexpression(word3, simple_reflection(3, 1))
    g3 = mr_evaluate(MRChart(psub3, (Fraction(1), Fraction(2))))
    assert g3 == generator_y(3, 1, 1) @ generator_y(3, 2, 2) @ sdot(3, 1)
    assert bruhat_position(borel_plus(3), FlagPoint(g3)) == longest_w(3)
    assert (
        bruhat_position(borel_minus(3), FlagPoint(g3))
        == longest_w(3) * simple_reflection(3, 1)
    )


def test_mr_rejects_nonpositive():
    word = ReducedWord(2, (1,))
    psub = positive_subexpression(word, identity_w(2))
    with pytest.raises(ParamError):
        mr_evaluate(MRChart(psub, (Fraction(0),)))


@pytest.mark.parametrize("n", [2, 3])
def test_mr_lands_in_its_cell_all_words(n):
    """Exhaustive over (v, w) and reduced words, randomized coordinates."""
    bp, bm = borel_plus(n), borel_minus(n)
    w0 = longest_w(n)
    rng = random.Random(9)
    for w in all_weyl(n):
        for letters in all_reduced_words(w):
            word = ReducedWord(n, letters)
            for v in all_weyl(n):
                if not bruhat_leq(v, w):
                    continue
                psub = positive_subexpression(word, v)
                for _ in range(3):
                    chart = MRChart(
                        psub,
                        tuple(rand_pos_fraction(rng) for _ in range(len(psub.jcirc))),
                    )
                    g = mr_evaluate(chart)
                    flag = FlagPoint(g)
                    assert bruhat_position(bp, flag) == w
                    assert bruhat_position(bm, flag) == w0 * v


def test_mr_injective_spot_check():
    rng = random.Random(13)
    w = longest_w(3)
    v = identity_w(3)
    seen = {}
    for _ in range(20):
        chart = mr_chart(v, w, rng)
        g = mr_evaluate(chart)
        key = g.canonical()
        assert seen.setdefault(key, chart.coords) == chart.coords
    assert len(seen) > 1


def test_sample_L_ge0():
    rng = random.Random(21)
    # J empty: torus
    l = sample_L_ge0(ParabolicSubset.of(3, []), rng)
    assert la.is_diagonal(l.m)
    # J full: all of G, totally nonnegative
    l = sample_L_ge0(ParabolicSubset.of(3, [1, 2]), rng)
    assert is_totally_nonneg(l)
    # J = {1}: block TNN
    J = ParabolicSubset.of(3, [1])
    for _ in range(10):
        l = sample_L_ge0(J, rng)
        assert la.is_block_upper(l.m, J.blocks0()) and la.is_block_lower(
            l.m, J.blocks0()
        )
        assert is_tnn_matrix(la.submatrix(l.m, [0, 1], [0, 1]))


def double_cell_of(g):
    """(wminus, wplus) of a totally nonnegative g, from the rank profiles of
    the unipotent parts of its factorization; the upper part's word is
    reversed by the transpose."""
    um, _, up = pi_factor(g)
    return bruhat_cell(um), bruhat_cell(up.T).inverse()


def test_double_cell_evaluate_and_recover():
    n = 2
    e = identity_w(n)
    s1 = simple_reflection(n, 1)
    # identity cell: torus
    t = double_cell_evaluate(DoubleCellPoint(e, e, (), (Fraction(3),), ()))
    assert la.is_diagonal(t.m)
    # (s1, e): y_1(a) t, with vanishing (1,2) entry and positive det
    p = DoubleCellPoint(s1, e, (Fraction(2),), (Fraction(1),), ())
    g = double_cell_evaluate(p)
    assert g.m[0][1] == 0 and g.m[1][0] > 0
    assert double_cell_of(g) == (s1, e)
    # (w0, w0) at n=2 gives a strictly positive element
    p2 = DoubleCellPoint(s1, s1, (Fraction(1),), (Fraction(1),), (Fraction(1),))
    assert is_totally_positive(double_cell_evaluate(p2))


@pytest.mark.parametrize("n", [2, 3])
def test_double_cell_recover_roundtrip(n):
    rng = random.Random(31 + n)
    ws = all_weyl(n)
    for wm in ws:
        for wp in ws:
            p = DoubleCellPoint(
                wm,
                wp,
                tuple(rand_pos_fraction(rng) for _ in range(wm.length)),
                tuple(rand_pos_fraction(rng) for _ in range(n - 1)),
                tuple(rand_pos_fraction(rng) for _ in range(wp.length)),
            )
            g = double_cell_evaluate(p)
            assert is_totally_nonneg(g)
            assert double_cell_of(g) == (wm, wp)


def test_unipotent_absorption():
    rng = random.Random(37)
    n = 3
    w0 = longest_w(n)
    from tnncompact.tnn import sample_Uplus_gt0
    from tnncompact.weyl import lex_min_reduced_word

    for _ in range(20):
        u = sample_Uplus_gt0(n, rng)
        w = all_weyl(n)[rng.randrange(6)]
        word = lex_min_reduced_word(w)
        u1 = phi_plus(word, [rand_pos_fraction(rng) for _ in range(len(word))])
        assert in_unipotent_cell(u @ u1, w0, lower=False)
        assert in_unipotent_cell(u1 @ u, w0, lower=False)


def _random_word(n, rng):
    """A seeded word of x, y and ṡ steps around one torus step, with
    coordinates of either sign and zero (nonzero on the torus)."""

    def coord(nonzero=False):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Fraction(1) if nonzero and a == 0 else a

    steps = [
        (kind, rng.randint(1, n - 1), None if kind == "s" else coord())
        for kind in (rng.choice("xys") for _ in range(rng.randint(0, 8)))
    ]
    tor = [coord(nonzero=True) for _ in range(n - 1)]
    steps.insert(rng.randint(0, len(steps)), ("t", 0, tor))
    return steps


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_word_evaluator_matches_generator_products(n):
    """The evaluator against x_i(a), y_i(a), ṡ_i and torus matrices written
    out entry by entry and multiplied row by column."""
    rng = random.Random(70 + n)
    for _ in range(30):
        steps = _random_word(n, rng)
        want = la.identity(n)
        for kind, i, a in steps:
            factor = (
                torus_matrix(a) if kind == "t"
                else sdot_matrix(n, i) if kind == "s"
                else (x_matrix if kind == "x" else y_matrix)(n, i, a)
            )
            want = naive_matmul(want, factor)
        g = _word_element(n, steps)
        assert g.m == want
        assert g.inverse().m == gauss_jordan_inverse(g.m)
