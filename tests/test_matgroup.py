import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import (
    block_anti_ldu,
    gauss_jordan_inverse,
    opposed_by_lie_algebra,
    partial_flag,
    sdot_matrix,
    torus_matrix,
    x_matrix,
    y_matrix,
)

from tnncompact import linalg as la
from tnncompact import serialize as ser
from tnncompact.linalg import FactorizationError
from tnncompact.matgroup import (
    FlagPoint,
    GroupError,
    GroupMatrix,
    ParabolicPoint,
    _bruhat_left,
    associated_borel,
    borel_minus,
    borel_plus,
    bruhat_position,
    generator_x,
    generator_y,
    identity_g,
    opposed,
    opposite_parabolic,
    pi_factor,
    sdot,
    standard_parabolic,
    torus,
    wdot,
)
from tnncompact.weyl import (
    ParabolicSubset,
    all_parabolic_subsets,
    all_weyl,
    bruhat_leq,
    longest_w,
    simple_reflection,
)

small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5
)


def rand_unipotent(n, rng, lower=False):
    g = identity_g(n)
    for _ in range(2 * n):
        i = rng.randint(1, n - 1)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        g = g @ (generator_y(n, i, a) if lower else generator_x(n, i, a))
    return g


def rand_factorable(n, rng):
    """u t u' is always in the open cell."""
    t = torus([Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([1, -1]) for _ in range(n - 1)])
    return rand_unipotent(n, rng, lower=True) @ t @ rand_unipotent(n, rng)


def test_generator_basics():
    assert generator_x(3, 1, 0) == identity_g(3)
    a, b = Fraction(2), Fraction(5, 3)
    assert generator_x(2, 1, a) @ generator_x(2, 1, b) == generator_x(2, 1, a + b)
    with pytest.raises(GroupError):
        generator_x(3, 3, 1)
    with pytest.raises(GroupError):
        torus([1, 0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_and_torus_entries(n):
    """x_i(a) = 1 + a·E_{i,i+1}, y_i(a) its transpose, ṡ_i the rotation
    block, and torus(a) = diag(a_1, a_2/a_1, …, 1/a_{n−1})."""
    rng = random.Random(50 + n)
    for _ in range(10):
        i = rng.randint(1, n - 1)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert generator_x(n, i, a).m == x_matrix(n, i, a)
        assert generator_y(n, i, a).m == y_matrix(n, i, a)
        assert sdot(n, i).m == sdot_matrix(n, i)
        coords = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]) for _ in range(n - 1)]
        assert torus(coords).m == torus_matrix(coords)
    with pytest.raises(GroupError):
        generator_y(n, n, 1)
    with pytest.raises(GroupError):
        generator_y(n, 0, 1)


def test_products_with_the_identity_check_sizes():
    x = generator_x(3, 1, 1)
    for lhs, rhs in ((identity_g(2), x), (x, identity_g(2)), (identity_g(2), identity_g(3))):
        with pytest.raises(ValueError):
            lhs @ rhs
    assert (identity_g(3) @ x) is x and (x @ identity_g(3)) is x


def test_commutation_in_rank_two():
    # x_1(2)x_2(3) = x_2(3) · (1 + 6E_13) · x_1(2)
    lhs = generator_x(3, 1, 2) @ generator_x(3, 2, 3)
    rows = [list(r) for r in la.identity(3)]
    rows[0][2] = Fraction(6)
    x12 = GroupMatrix(la.mat(rows))
    rhs = generator_x(3, 2, 3) @ x12 @ generator_x(3, 1, 2)
    assert lhs == rhs


def test_sdot_matrix_and_order():
    assert sdot(2, 1).m == la.mat([[0, -1], [1, 0]])
    s = sdot(3, 1)
    assert s @ s @ s @ s == identity_g(3)


def test_wdot_word_independent():
    for n in (3, 4):
        for w in all_weyl(n):
            from tnncompact.weyl import all_reduced_words

            words = all_reduced_words(w)
            mats = set()
            for letters in words:
                g = identity_g(n)
                for i in letters:
                    g = g @ sdot(n, i)
                mats.add(g)
            assert len(mats) == 1


def test_psi_on_generators_and_torus():
    assert identity_g(3).T == identity_g(3)
    assert generator_x(3, 1, Fraction(7, 2)).T == generator_y(3, 1, Fraction(7, 2))
    t = torus([2, 3])
    assert t.T == t
    lhs = (sdot(3, 1) @ sdot(3, 2)).T
    rhs = sdot(3, 2).T @ sdot(3, 1).T
    assert lhs == rhs


@given(st.integers(2, 4), st.integers(0, 10_000))
def test_psi_antiautomorphism_involution(n, seed):
    rng = random.Random(seed)
    g = rand_factorable(n, rng)
    h = rand_factorable(n, rng)
    assert (g @ h).T == h.T @ g.T
    assert g.T.T == g


def test_projective_equality_even_rank():
    g = GroupMatrix(la.mat([[0, -1], [1, 0]]))
    assert g == GroupMatrix(la.scale(g.m, Fraction(-1)))
    with pytest.raises(GroupError):
        GroupMatrix(la.mat([[2, 0], [0, 1]]))


def test_pi_factor_spec_cases():
    g = generator_y(2, 1, 1) @ generator_x(2, 1, 1)
    u, t, up = pi_factor(g)
    assert u == generator_y(2, 1, 1) and t == identity_g(2) and up == generator_x(2, 1, 1)

    with pytest.raises(FactorizationError):
        pi_factor(GroupMatrix(la.mat([[0, -1], [1, 0]])))

    g = GroupMatrix(la.mat([[1, 1], [1, 2]]))
    u, t, up = pi_factor(g)
    assert t == identity_g(2)
    assert u == generator_y(2, 1, 1) and up == generator_x(2, 1, 1)


def test_pi_factor_reassembles_1000():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        g = rand_factorable(n, rng)
        u, t, up = pi_factor(g)
        assert u @ t @ up == g
        assert la.is_lower_triangular(u.m) and la.is_upper_triangular(up.m)
        assert t.m == la.ldu(g.m)[1]


def test_pi_T_multiplicative_across_cell():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([2, 3])
        b1 = rand_unipotent(n, rng, lower=True) @ torus(
            [Fraction(rng.randint(1, 4)) for _ in range(n - 1)]
        )
        b3 = torus([Fraction(rng.randint(1, 4)) for _ in range(n - 1)]) @ rand_unipotent(n, rng)
        b2 = rand_factorable(n, rng)
        t, t1, t2, t3 = (pi_factor(b)[1] for b in (b1 @ b2 @ b3, b1, b2, b3))
        assert t == t1 @ t2 @ t3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_position_exhaustive(n):
    bp = borel_plus(n)
    for w in all_weyl(n):
        assert bruhat_position(bp, FlagPoint(wdot(w))) == w


def test_bruhat_position_spec_cases():
    bp = borel_plus(2)
    assert bruhat_position(bp, bp).is_identity()
    assert bruhat_position(bp, FlagPoint(sdot(2, 1))) == simple_reflection(2, 1)
    assert bruhat_position(bp, FlagPoint(generator_y(2, 1, 1))) == simple_reflection(2, 1)


def test_bruhat_position_invariant_under_common_conjugation():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice([2, 3])
        b1 = FlagPoint(rand_factorable(n, rng))
        b2 = FlagPoint(rand_factorable(n, rng))
        g = rand_factorable(n, rng)
        assert bruhat_position(b1, b2) == bruhat_position(
            b1.conjugate(g), b2.conjugate(g)
        )


def test_associated_borel_spec_cases():
    J = ParabolicSubset.of(3, [1])
    P = standard_parabolic(J)
    assert associated_borel(P, borel_plus(3)) == borel_plus(3)
    # for J empty, P is already a Borel
    J0 = ParabolicSubset.of(2, [])
    assert associated_borel(standard_parabolic(J0), borel_minus(2)) == borel_plus(2)

    # MR-positive conjugate with w in W^J: (^g P_J)^{B^+} = ^g B^+
    from tnncompact.tnn import mr_chart, mr_evaluate

    rng = random.Random(5)
    for v, w in [((1, 2, 3), (2, 3, 1)), ((1, 3, 2), (2, 3, 1)), ((1, 2, 3), (1, 3, 2))]:
        from tnncompact.weyl import WeylElement

        chart = mr_chart(WeylElement(v), WeylElement(w), rng)
        g = mr_evaluate(chart)
        got = associated_borel(ParabolicPoint(J, g), borel_plus(3))
        assert got == FlagPoint(g)


def _borel_inside(parabolic, borel) -> bool:
    """The full flag of the Borel refines the parabolic's partial flag."""
    cols = la.transpose(borel.g.m)
    for step in partial_flag(parabolic):
        d = la.rank(step)
        lead = la.transpose(tuple(cols[:d]))
        if la.rank(tuple(rs + rl for rs, rl in zip(step, lead))) != d:
            return False
    return True


def check_associated_borel(P, B):
    """The associated Borel lies in P, at a minimal-coset position from B:
    in W^J on the standard side and in W^{J*} on the opposite side."""
    Bp = associated_borel(P, B)
    assert _borel_inside(P, Bp)
    pos = bruhat_position(B, Bp)
    if P.opposite:
        assert P.J.star().is_min_rep(pos)
    else:
        assert la.is_block_upper((P.g.inverse() @ Bp.g).m, P.J.blocks0())
        assert P.J.is_min_rep(pos)


def rand_sparse_upper(n, rng):
    """Upper unipotent with at most one generator factor: most eliminations
    by it have zero multipliers."""
    if rng.random() < 0.3:
        return identity_g(n)
    return generator_x(n, rng.randint(1, n - 1), rng.choice([-2, 1, 3]))


def test_associated_borel_properties_random():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice([2, 3])
        J = rng.choice(all_parabolic_subsets(n))
        P = ParabolicPoint(J, rand_factorable(n, rng))
        B = FlagPoint(rand_factorable(n, rng))
        check_associated_borel(P, B)


def test_associated_borel_opposite_side():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.choice([2, 3])
        J = rng.choice(all_parabolic_subsets(n))
        Q = ParabolicPoint(J, rand_factorable(n, rng), opposite=True)
        B = FlagPoint(rand_factorable(n, rng))
        check_associated_borel(Q, B)


@pytest.mark.parametrize("n", [2, 3])
def test_associated_borel_exhaustive(n):
    """Every J, both sides, every relative position w between P's conjugator
    and the flag: B = ^ẇB^+ against P_J, Q_J and a dense conjugate, and
    ^{g·u·ẇ·u'}B^+ against ^g P_J with sparse u, u' and dense g."""
    rng = random.Random(31 + n)
    for J in all_parabolic_subsets(n):
        for w in all_weyl(n):
            for opposite in (False, True):
                for g in (identity_g(n), rand_factorable(n, rng)):
                    check_associated_borel(
                        ParabolicPoint(J, g, opposite), FlagPoint(wdot(w))
                    )
                g = rand_factorable(n, rng)
                u, up = rand_sparse_upper(n, rng), rand_sparse_upper(n, rng)
                B = FlagPoint(g @ u @ wdot(w) @ up)
                check_associated_borel(ParabolicPoint(J, g, opposite), B)


def test_associated_borel_sampled_n4():
    rng = random.Random(37)
    n = 4
    ws = all_weyl(n)
    for J in all_parabolic_subsets(n):
        for _ in range(6):
            g = rng.choice([identity_g(n), rand_factorable(n, rng)])
            u, up = rand_sparse_upper(n, rng), rand_sparse_upper(n, rng)
            B = FlagPoint(g @ u @ wdot(rng.choice(ws)) @ up)
            check_associated_borel(ParabolicPoint(J, g, rng.random() < 0.5), B)


def test_associated_borel_computes_no_rank_or_span(monkeypatch):
    """One elimination and coset arithmetic: no rank, kernel or span call."""

    def forbidden(*args):
        raise AssertionError("associated_borel called a rank or span routine")

    for name in ("rank", "in_span", "span_intersection", "kernel"):
        monkeypatch.setattr(la, name, forbidden)
    rng = random.Random(47)
    J = ParabolicSubset.of(4, [1, 3])
    for opposite in (False, True):
        P = ParabolicPoint(J, rand_factorable(4, rng), opposite)
        associated_borel(P, FlagPoint(rand_factorable(4, rng)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_left_every_pivot_pattern(n):
    """m = u·ẇ·t·u' with sparse or dense upper unipotent u, u' and t in T
    factors as b·ẇ·(upper) with b upper unipotent, for every w, and the
    elimination's b⁻¹ inverts b."""
    rng = random.Random(43 + n)
    one = la.identity(n)
    for w in all_weyl(n):
        for _ in range(3):
            u = rng.choice([rand_sparse_upper(n, rng), rand_unipotent(n, rng)])
            up = rng.choice([rand_sparse_upper(n, rng), rand_unipotent(n, rng)])
            t = torus([Fraction(rng.choice([-3, 1, 2])) for _ in range(n - 1)])
            m = u @ wdot(w) @ t @ up
            b, b_inv, got = _bruhat_left(m.m)
            assert got == w
            assert la.is_upper_triangular(b)
            assert all(b[i][i] == 1 for i in range(n))
            assert la.matmul(b, b_inv) == one and la.matmul(b_inv, b) == one
            assert la.is_upper_triangular(((GroupMatrix(b) @ wdot(w)).inverse() @ m).m)


def test_opposed():
    J = ParabolicSubset.of(3, [1])
    assert opposed(standard_parabolic(J), opposite_parabolic(J))
    rng = random.Random(23)
    u = rand_unipotent(3, rng)
    assert opposed(standard_parabolic(J), opposite_parabolic(J).conjugate(u))
    # a Borel is not opposed to itself: B^+ = ^{wdot(w0)} B^-
    J0 = ParabolicSubset.of(2, [])
    q_as_bplus = opposite_parabolic(J0).conjugate(wdot(longest_w(2)))
    assert not opposed(standard_parabolic(J0), q_as_bplus)
    with pytest.raises(GroupError):
        opposed(standard_parabolic(J), opposite_parabolic(ParabolicSubset.of(3, [2])))


def test_star_matches_opposite_parabolic_shape():
    """Matrix oracle for J*: the opposite parabolic of the J-blocks,
    conjugated by the longest signed permutation, is block upper for the
    starred subset."""
    from itertools import combinations

    for n in (2, 3, 4):
        r = wdot(longest_w(n))
        rng = random.Random(n)
        for size in range(n):
            for js in combinations(range(1, n), size):
                J = ParabolicSubset.of(n, js)
                blocks_star = J.star().blocks0()
                for _ in range(5):
                    q = rand_unipotent(n, rng, lower=True) @ torus(
                        [Fraction(rng.randint(1, 4)) for _ in range(n - 1)]
                    )
                    for j in J.J:
                        q = q @ generator_x(n, j, Fraction(rng.randint(-3, 3)))
                    assert la.is_block_lower(q.m, J.blocks0())
                    assert la.is_block_upper((r @ q @ r.inverse()).m, blocks_star)


def test_opposed_implies_levi_coset_positions():
    """When P and Q are opposed, associated Borels sit in W_J·w0 relative
    position, for any reference flag."""
    rng = random.Random(41)
    J = ParabolicSubset.of(3, [1])
    w0 = longest_w(3)
    for _ in range(10):
        u = rand_unipotent(3, rng)
        P = standard_parabolic(J)
        Q = opposite_parabolic(J).conjugate(u)
        assert opposed(P, Q)
        B = FlagPoint(rand_factorable(3, rng))
        pos = bruhat_position(associated_borel(P, B), associated_borel(Q, B))
        assert J.contains_w(pos * w0)


def test_opposed_matches_two_sided_reduction():
    """Opposedness of (P_J, ^h Q_J), by the Lie-algebra count, coincides with
    existence of the two-sided block factorization of h, and levi_part is
    the middle factor of the oracle's factorization, for every J and every
    ẇ at n = 3."""
    for J in all_parabolic_subsets(3):
        for w in all_weyl(3):
            h = wdot(w)
            via_lie = opposed_by_lie_algebra(
                standard_parabolic(J), opposite_parabolic(J).conjugate(h)
            )
            try:
                _, want, _ = block_anti_ldu(h.m, J.blocks0())
            except FactorizationError:
                want = None
            try:
                got = la.levi_part(h.m, J.blocks0())
            except FactorizationError:
                got = None
            assert got == want, (J, w)
            assert via_lie == (got is not None), (J, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_opposed_matches_lie_algebra_oracle(n):
    """opposed() against the Lie-algebra dimension count: every J with every
    ẇ conjugator, then random unipotent and generic conjugators on both
    sides."""
    rng = random.Random(53 + n)
    seen = set()
    for J in all_parabolic_subsets(n):
        P = standard_parabolic(J)
        for w in all_weyl(n):
            Q = opposite_parabolic(J).conjugate(wdot(w))
            expected = opposed_by_lie_algebra(P, Q)
            assert opposed(P, Q) == expected, (J, w)
            seen.add(expected)
        for _ in range(4):
            gp = rng.choice([rand_unipotent(n, rng), rand_factorable(n, rng)])
            gq = rng.choice(
                [
                    rand_unipotent(n, rng, lower=True),
                    rand_unipotent(n, rng),
                    rand_factorable(n, rng),
                ]
            )
            P, Q = ParabolicPoint(J, gp), ParabolicPoint(J, gq, opposite=True)
            assert opposed(P, Q) == opposed_by_lie_algebra(P, Q), J
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# closed-form Weyl matrices against products of generators


def sdot_by_generators(n, i):
    return generator_x(n, i, -1) @ generator_y(n, i, 1) @ generator_x(n, i, -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sdot_matches_generator_product(n):
    for i in range(1, n):
        assert sdot(n, i).m == sdot_by_generators(n, i).m
    with pytest.raises(GroupError):
        sdot(n, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wdot_matches_two_reduced_words(n):
    from tnncompact.weyl import all_reduced_words

    gens = {i: sdot_by_generators(n, i) for i in range(1, n)}
    for w in all_weyl(n):
        words = all_reduced_words(w)
        for letters in {words[0], words[-1]}:
            g = identity_g(n)
            for i in letters:
                g = g @ gens[i]
            assert wdot(w).m == g.m, (w, letters)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_borel_minus_is_built_once(n, monkeypatch):
    from tnncompact import matgroup

    calls = {"matmul": 0, "det": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(la, "matmul", counting("matmul", la.matmul))
    monkeypatch.setattr(la, "det", counting("det", la.det))
    matgroup._signed_permutation.cache_clear()
    first = borel_minus(n)
    assert calls["det"] == 0 and calls["matmul"] == 0  # closed form, trusted
    calls.update(matmul=0, det=0)
    second = borel_minus(n)
    assert calls == {"matmul": 0, "det": 0}
    assert second.g is first.g


def test_flag_and_parabolic_points_are_unhashable():
    """Equality is coset equality, so a field hash would disagree with it."""
    J = ParabolicSubset.of(3, [1])
    u = generator_x(3, 1, 2)
    assert FlagPoint(u) == borel_plus(3)
    assert ParabolicPoint(J, u) == standard_parabolic(J)
    for point in (borel_plus(3), standard_parabolic(J), opposite_parabolic(J)):
        with pytest.raises(TypeError):
            hash(point)


# ---------------------------------------------------------------------------
# det = 1 checked at entry only; closed-form and fraction-free inverses


def no_elimination(*_):
    raise AssertionError("a closed-form inverse went through elimination")


def assert_inverse(g):
    inv = g.inverse()
    assert inv.m == gauss_jordan_inverse(g.m)
    assert inv.inverse().m is g.m


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_lift_inverses_are_closed_form(n, monkeypatch):
    monkeypatch.setattr(la, "inverse", no_elimination)
    for w in all_weyl(n):
        assert_inverse(wdot(w))
        assert wdot(w).inverse().m == la.transpose(wdot(w).m)
    for i in range(1, n):
        assert_inverse(sdot(n, i))
    for g in (identity_g(n), borel_plus(n).g, borel_minus(n).g):
        assert_inverse(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_and_torus_inverses_are_closed_form(n, monkeypatch):
    monkeypatch.setattr(la, "inverse", no_elimination)
    rng = random.Random(70 + n)
    for _ in range(10):
        i = rng.randint(1, n - 1)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for gen in (generator_x, generator_y):
            assert_inverse(gen(n, i, a))
            assert gen(n, i, a).inverse().m == gen(n, i, -a).m
        t = torus([Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]) for _ in range(n - 1)])
        assert_inverse(t)
        assert la.is_diagonal(t.inverse().m)


def chart_matrices(n, rng):
    """Products, inverses and transposes of the matrices the samplers build."""
    from tnncompact.tnn import mr_chart, mr_evaluate, sample_G_gt0, sample_L_ge0

    ws = sorted(all_weyl(n), key=lambda w: w.perm)
    w = rng.choice(ws)
    v = rng.choice([x for x in ws if bruhat_leq(x, w)])
    g = mr_evaluate(mr_chart(v, w, rng))
    h = sample_G_gt0(n, rng)
    l = sample_L_ge0(rng.choice(all_parabolic_subsets(n)), rng)
    u = rand_factorable(n, rng)
    return [
        g, h, l, u, g @ h, h.T, g.inverse(), (g @ l @ h.T).inverse(),
        g.T.inverse() @ u, (u @ wdot(w)).T, pi_factor(u)[0].inverse(),
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chart_matrices_stay_in_the_group(n):
    rng = random.Random(90 + n)
    one = la.identity(n)
    for _ in range(4):
        for g in chart_matrices(n, rng):
            assert la.det(g.m) == 1
            assert (g @ g.inverse()).m == one
            assert (g.inverse() @ g).m == one
            assert g.inverse().m == gauss_jordan_inverse(g.m)
            assert g.T.inverse().m == la.transpose(g.inverse().m)


def test_inverse_is_not_kept_on_the_callers_matrix():
    g = GroupMatrix(la.mat([[1, 1], [1, 2]]))
    inv = g.inverse()
    assert inv.m == la.mat([[2, -1], [-1, 1]])
    assert inv.inverse().m is g.m
    assert vars(g) == {"m": g.m}


def test_det_is_checked_where_matrices_enter():
    with pytest.raises(GroupError):
        GroupMatrix(la.mat([[2, 0], [0, 1]]))
    with pytest.raises(GroupError):
        GroupMatrix(la.mat([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(GroupError):
        ser.group_from_json([["2", "0"], ["0", "1"]])
    assert ser.group_from_json([["1", "1"], ["1", "2"]]).m == la.mat([[1, 1], [1, 2]])
