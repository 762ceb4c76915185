import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st
from oracles import (
    evaluate_word,
    fraction_is_tnn,
    fraction_is_totally_positive,
    gauss_jordan_inverse,
    generator_x,
    generator_y,
    identity,
    is_block_lower,
    is_block_upper,
    is_diagonal,
    laplace_det,
    mr_chart,
    naive_matmul,
    sample_L_ge0,
    scale,
    sdot_matrix,
    square_matrices,
    torus_matrix,
    trusted,
    x_matrix,
    y_matrix,
)

from tnncompact import linalg as la
from tnncompact.cells import chart_point, dimension_of, top_label
from tnncompact.verify import _positive_point
from tnncompact.matgroup import (
    GroupMatrix,
    _word_element,
    borel_minus,
    bruhat_cell,
    identity_g,
    pi_factor,
    sdot,
    torus,
    wdot,
)
from tnncompact.tnn import (
    ParamError,
    double_cell_evaluate,
    in_Uplus_gt0,
    is_tnn_matrix,
    is_totally_nonneg,
    is_totally_positive,
    mr_evaluate,
    phi_plus,
    rand_pos_fraction,
    sample_G_gt0,
    sample_Uplus_gt0,
)
from tnncompact.weyl import (
    ParabolicSubset,
    ReducedWord,
    WeylElement,
    all_reduced_words,
    all_weyl,
    bruhat_leq,
    identity_w,
    lex_min_reduced_word,
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_positive_samplers_are_one_chart_word(n):
    """sample_G_gt0 is the (w₀, w₀) chart, drawn lower leg, torus, upper
    leg, and a positive point is (u1·t, u2) with u1·t the (w₀, e) chart,
    drawn u1, u2, t: each equals its y-word, torus and x-word multiplied out
    over Fraction from the same draws."""
    letters = lex_min_reduced_word(longest_w(n)).letters
    l, one = len(letters), Fraction(1)

    def draws(rng, k):
        return [rand_pos_fraction(rng) for _ in range(k)]

    def leg(kind, coords):
        return [(kind, i, a) for i, a in zip(letters, coords)]

    for s in range(50):
        rng = random.Random(s)
        am, tor, ap = draws(rng, l), draws(rng, n - 1), draws(rng, l)
        want = evaluate_word(n, leg("y", am) + [("t", 0, tor)] + leg("x", ap), one)
        assert sample_G_gt0(n, random.Random(s)).m == want
        rng = random.Random(s)
        am, ap, tor = draws(rng, l), draws(rng, l), draws(rng, n - 1)
        z = _positive_point(ParabolicSubset.of(n, []), random.Random(s))
        assert z.g1.m == evaluate_word(n, leg("y", am) + [("t", 0, tor)], one)
        assert z.g2.m == evaluate_word(n, leg("x", ap), one)


@given(square_matrices())
def test_integer_minor_tests_match_the_fraction_ladder(case):
    """The minor tests run on cleared denominators; signs must be those of
    the rational ladder, on the matrices and on their absolute values."""
    _, m = case
    for a in (m, tuple(tuple(abs(x) for x in row) for row in m)):
        assert is_tnn_matrix(a) == fraction_is_tnn(a)
        g = trusted(a)
        assert is_totally_positive(g) == fraction_is_totally_positive(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integer_minor_tests_match_the_fraction_ladder_on_samples(n):
    """Strictly positive, nonnegative-with-zero-minors and negated samples."""
    rng = random.Random(90 + n)
    full = ParabolicSubset.of(n, range(1, n))
    for _ in range(8):
        g, l = sample_G_gt0(n, rng), sample_L_ge0(full, rng)
        for h in (g, l, g @ l, trusted(scale(g.m, Fraction(-1)))):
            assert is_tnn_matrix(h.m) == fraction_is_tnn(h.m)
            assert is_totally_positive(h) == fraction_is_totally_positive(h)


def test_is_tnn_matrix_reads_every_minor_of_a_rectangular_matrix():
    """A rectangular matrix is TNN when every minor, by Laplace expansion
    over every choice of rows and columns, is ≥ 0."""

    def brute(m):
        nr, nc = la.dims(m)
        return all(
            laplace_det([[m[i][j] for j in cols] for i in rows]) >= 0
            for k in range(1, min(nr, nc) + 1)
            for rows in combinations(range(nr), k)
            for cols in combinations(range(nc), k)
        )

    rng = random.Random(49)
    entries = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)]
    cases = [la.mat([[1, 2, 3], [4, 5, 6]]), la.mat([[1, 2], [3, 4], [5, 6]])]
    cases += [
        la.mat([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
        for nr, nc in [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(400)]
    ]
    verdicts = [is_tnn_matrix(m) for m in cases]
    assert verdicts == [brute(m) for m in cases]
    assert verdicts[:2] == [False, False]
    rectangular = {v for m, v in zip(cases, verdicts) if la.dims(m)[0] != la.dims(m)[1]}
    assert rectangular == {False, True}
    with pytest.raises(ValueError):
        is_tnn_matrix(((Fraction(1), Fraction(2)), (Fraction(3),)))


def test_a_negated_tp_matrix_takes_one_ladder(monkeypatch):
    """At even n the minor tests run one ladder, on the canonical sign
    representative: −M of a totally positive g passes on the first call."""
    import tnncompact.tnn as tnn_mod

    g = sample_G_gt0(4, random.Random(4))
    neg = trusted(scale(g.m, Fraction(-1)))
    assert neg.M == tuple(tuple(-x for x in row) for row in g.M)
    real, calls = tnn_mod._minors_positive, []

    def counting(a, strict):
        calls.append(strict)
        return real(a, strict)

    monkeypatch.setattr(tnn_mod, "_minors_positive", counting)
    assert is_totally_positive(neg) and is_totally_nonneg(neg)
    assert calls == [True, False]


def test_mr_evaluate_spec_cases():
    # n=2, word (1), v=e, a=(2) -> y_1(2)
    word = ReducedWord(2, (1,))
    psub = positive_subexpression(word, identity_w(2))
    g = mr_evaluate(psub, (Fraction(2),))
    assert g == generator_y(2, 1, 2)
    assert bruhat_cell(g) == simple_reflection(2, 1)
    assert bruhat_cell(borel_minus(2).inverse() @ g) == longest_w(2)

    # v = s_1: no coordinates, evaluates to sdot
    psub2 = positive_subexpression(word, simple_reflection(2, 1))
    assert mr_evaluate(psub2, ()) == sdot(2, 1)

    # n=3, word (1,2,1), v=s_1: y_1 y_2 sdot(1), classifies to (v,w)=(s_1,w_0)
    word3 = ReducedWord(3, (1, 2, 1))
    psub3 = positive_subexpression(word3, simple_reflection(3, 1))
    g3 = mr_evaluate(psub3, (Fraction(1), Fraction(2)))
    assert g3 == generator_y(3, 1, 1) @ generator_y(3, 2, 2) @ sdot(3, 1)
    assert bruhat_cell(g3) == longest_w(3)
    assert bruhat_cell(borel_minus(3).inverse() @ g3) == longest_w(3) * simple_reflection(3, 1)


def test_mr_rejects_nonpositive():
    word = ReducedWord(2, (1,))
    psub = positive_subexpression(word, identity_w(2))
    for a in (Fraction(0), Fraction(-1)):
        with pytest.raises(ParamError):
            mr_evaluate(psub, (a,))


def test_mr_rejects_a_count_other_than_the_free_steps():
    """One coordinate per free step: y_1 over the word (1) at v = e takes
    one, ṡ_1 at v = s_1 takes none."""
    word = ReducedWord(2, (1,))
    for v, bad in ((identity_w(2), [(), (1, 2)]), (simple_reflection(2, 1), [(1,)])):
        psub = positive_subexpression(word, v)
        for coords in bad:
            with pytest.raises(ParamError):
                mr_evaluate(psub, coords)


def _top_chart_point(a):
    label = top_label(ParabolicSubset.of(2, []))
    return chart_point(label, (a,) + (Fraction(1),) * (dimension_of(label) - 1))


# one coordinate a in each evaluator of coordinates, at n = 2
COORDINATE_CALLS = {
    "mr_evaluate": lambda a: mr_evaluate(
        positive_subexpression(ReducedWord(2, (1,)), identity_w(2)), (a,)
    ),
    "double_cell_evaluate": lambda a: double_cell_evaluate(
        identity_w(2), identity_w(2), (), (a,), ()
    ),
    "chart_point": _top_chart_point,
    "torus": lambda a: torus((a,)),
    "generator_x": lambda a: generator_x(2, 1, a),
    "phi_plus": lambda a: phi_plus(ReducedWord(2, (1,)), (a,)),
}


@pytest.mark.parametrize("name", sorted(COORDINATE_CALLS))
def test_evaluators_refuse_a_float_coordinate(name):
    """0.1 is the binary float 3602879701896397/36028797018963968, not 1/10:
    each evaluator takes 1/10 as a Fraction and refuses the float with
    TypeError.  It refuses True too, a truth value and not the number 1, as
    the GroupMatrix constructor refuses a bool entry."""
    call = COORDINATE_CALLS[name]
    call(Fraction(1, 10))
    call(1)
    for bad in (0.1, True):
        with pytest.raises(TypeError):
            call(bad)


@pytest.mark.parametrize("n", [2, 3])
def test_mr_lands_in_its_cell_all_words(n):
    """Exhaustive over (v, w) and reduced words, randomized coordinates."""
    bm_inv = borel_minus(n).inverse()
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
                    coords = [rand_pos_fraction(rng) for _ in psub.jcirc]
                    flag = mr_evaluate(psub, coords)
                    assert bruhat_cell(flag) == w
                    assert bruhat_cell(bm_inv @ flag) == w0 * v


def test_mr_injective_spot_check():
    rng = random.Random(13)
    w = longest_w(3)
    v = identity_w(3)
    seen = {}
    for _ in range(20):
        psub, coords = mr_chart(v, w, rng)
        key = mr_evaluate(psub, coords).canonical()
        assert seen.setdefault(key, coords) == coords
    assert len(seen) > 1


def test_sample_L_ge0():
    rng = random.Random(21)
    # J empty: torus
    l = sample_L_ge0(ParabolicSubset.of(3, []), rng)
    assert is_diagonal(l.m)
    # J full: all of G, totally nonnegative
    l = sample_L_ge0(ParabolicSubset.of(3, [1, 2]), rng)
    assert is_totally_nonneg(l)
    # J = {1}: block TNN
    J = ParabolicSubset.of(3, [1])
    for _ in range(10):
        l = sample_L_ge0(J, rng)
        assert is_block_upper(l.m, J.blocks0()) and is_block_lower(
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
    t = double_cell_evaluate(e, e, (), (Fraction(3),), ())
    assert is_diagonal(t.m)
    # (s1, e): y_1(a) t, with vanishing (1,2) entry and positive det
    g = double_cell_evaluate(s1, e, (Fraction(2),), (Fraction(1),), ())
    assert g.m[0][1] == 0 and g.m[1][0] > 0
    assert double_cell_of(g) == (s1, e)
    # (w0, w0) at n=2 gives a strictly positive element
    one = (Fraction(1),)
    assert is_totally_positive(double_cell_evaluate(s1, s1, one, one, one))


def test_double_cell_evaluate_rejects_a_rank_mismatch():
    """Two legs of different ranks are refused, in either order, with one
    coordinate per letter and per simple root of the first leg."""
    w2, w3 = longest_w(2), longest_w(3)
    for wminus, wplus in ((w2, WeylElement((2, 1, 3))), (w2, w3), (w3, w2)):
        legs = ((1,) * wminus.length, (1,) * (wminus.n - 1), (1,) * wplus.length)
        with pytest.raises(ParamError, match="rank mismatch"):
            double_cell_evaluate(wminus, wplus, *legs)


def test_double_cell_evaluate_rejects_bad_coordinates():
    """A leg whose count is not its word's length, a torus whose count is
    not the rank, and a nonpositive coordinate on any part."""
    e, s1 = identity_w(3), simple_reflection(3, 1)
    good = ((2,), (1, 3), (5,))
    assert double_cell_of(double_cell_evaluate(s1, s1, *good)) == (s1, s1)
    bad = [
        ((), (1, 3), (5,)),
        ((2,), (1, 3), ()),
        ((2,), (1,), (5,)),
        ((2,), (1, 3, 1), (5,)),
        ((0,), (1, 3), (5,)),
        ((2,), (1, -3), (5,)),
        ((2,), (1, 3), (-5,)),
    ]
    for aminus, tor, aplus in bad:
        with pytest.raises(ParamError):
            double_cell_evaluate(s1, s1, aminus, tor, aplus)
    with pytest.raises(ParamError):
        double_cell_evaluate(e, e, (2,), (1, 3), ())


@pytest.mark.parametrize("n", [2, 3])
def test_double_cell_recover_roundtrip(n):
    rng = random.Random(31 + n)
    ws = all_weyl(n)
    for wm in ws:
        for wp in ws:
            g = double_cell_evaluate(
                wm,
                wp,
                tuple(rand_pos_fraction(rng) for _ in range(wm.length)),
                tuple(rand_pos_fraction(rng) for _ in range(n - 1)),
                tuple(rand_pos_fraction(rng) for _ in range(wp.length)),
            )
            assert is_totally_nonneg(g)
            assert double_cell_of(g) == (wm, wp)


def test_unipotent_absorption():
    rng = random.Random(37)
    n = 3
    from tnncompact.weyl import lex_min_reduced_word

    for _ in range(20):
        u = sample_Uplus_gt0(n, rng)
        w = all_weyl(n)[rng.randrange(6)]
        word = lex_min_reduced_word(w)
        u1 = phi_plus(word, [rand_pos_fraction(rng) for _ in range(len(word))])
        assert in_Uplus_gt0(u @ u1)
        assert in_Uplus_gt0(u1 @ u)


@pytest.mark.parametrize("n", [3, 4])
def test_in_Uplus_gt0_needs_the_minor_test(n):
    """Negative control: x = x_1(−t)·u for u in U^+_{>0} and t one more than
    u's (1, 2) entry is upper unipotent with the lower-left rank profile of
    w0, so only the TNN minor test tells it from U^+_{w0,>0}: its (1, 2)
    entry is −1.  The row operation changes only the corner minor in row 1,
    the (1, n) entry, which stays nonzero on these draws."""
    rng = random.Random(90 + n)
    w0 = longest_w(n)
    for _ in range(5):
        u = sample_Uplus_gt0(n, rng)
        x = generator_x(n, 1, -(u.m[0][1] + 1)) @ u
        assert x.m[0][1] == -1
        assert bruhat_cell(x.T).inverse() == w0
        assert in_Uplus_gt0(u)
        assert not in_Uplus_gt0(x)


@pytest.mark.parametrize("n", [2, 4])
def test_in_Uplus_gt0_reads_the_element_not_its_sign(n):
    """At even n, M and −M are one element: the verdict is the same for
    both, members of U^+_{>0} and the negative control alike."""
    rng = random.Random(49 + n)
    for _ in range(5):
        u = sample_Uplus_gt0(n, rng)
        x = generator_x(n, 1, -(u.m[0][1] + 1)) @ u
        for g, member in ((u, True), (x, False)):
            neg = GroupMatrix(scale(g.m, Fraction(-1)))
            assert neg == g and hash(neg) == hash(g)
            assert in_Uplus_gt0(g) == in_Uplus_gt0(neg) == member


@pytest.mark.parametrize("n", [2, 3, 4])
def test_words_of_s_steps_are_weyl_lifts(n):
    """Without its unit torus steps, a word of ṡ_i steps alone is the shared
    lift ẇ, and the identity when empty; so is a chart with no free step."""
    unit = ("t", 0, tuple(Fraction(1) for _ in range(n - 1)))
    rng = random.Random(75 + n)
    for w in all_weyl(n):
        word = [("s", i, None) for i in all_reduced_words(w)[-1]]
        assert _word_element(n, [unit] + word + [unit]) is wdot(w)
        assert mr_evaluate(*mr_chart(w, w, rng)) is wdot(w)
    assert _word_element(n, [unit]) is identity_g(n) is torus([1] * (n - 1))


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
        want = identity(n)
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
