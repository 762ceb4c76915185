import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tnncompact import linalg as la
from tnncompact.linalg import FactorizationError
from tnncompact.matgroup import (
    FlagPoint,
    GroupError,
    GroupMatrix,
    ParabolicPoint,
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
    pi_T,
    pi_UminusJ,
    pi_Uplus,
    pi_UplusJ,
    psi,
    sdot,
    standard_parabolic,
    torus,
    wdot,
)
from tnncompact.weyl import ParabolicSubset, all_weyl, longest_w, simple_reflection

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
    assert psi(identity_g(3)) == identity_g(3)
    assert psi(generator_x(3, 1, Fraction(7, 2))) == generator_y(3, 1, Fraction(7, 2))
    t = torus([2, 3])
    assert psi(t) == t
    lhs = psi(sdot(3, 1) @ sdot(3, 2))
    rhs = psi(sdot(3, 2)) @ psi(sdot(3, 1))
    assert lhs == rhs


@given(st.integers(2, 4), st.integers(0, 10_000))
def test_psi_antiautomorphism_involution(n, seed):
    rng = random.Random(seed)
    g = rand_factorable(n, rng)
    h = rand_factorable(n, rng)
    assert psi(g @ h) == psi(h) @ psi(g)
    assert psi(psi(g)) == g


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
        pi_T(GroupMatrix(la.mat([[0, -1], [1, 0]])))

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
        assert la.is_diagonal(t.m)


def test_pi_T_multiplicative_across_cell():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([2, 3])
        b1 = rand_unipotent(n, rng, lower=True) @ torus(
            [Fraction(rng.randint(1, 4)) for _ in range(n - 1)]
        )
        b3 = torus([Fraction(rng.randint(1, 4)) for _ in range(n - 1)]) @ rand_unipotent(n, rng)
        b2 = rand_factorable(n, rng)
        assert pi_T(b1 @ b2 @ b3) == pi_T(b1) @ pi_T(b2) @ pi_T(b3)


def test_pi_UplusJ_spec_cases():
    J = ParabolicSubset.of(3, [1])
    g = generator_x(3, 1, 2) @ generator_x(3, 2, 3)
    assert pi_UplusJ(g, J) == generator_x(3, 1, 2)
    full = ParabolicSubset.of(3, [1, 2])
    assert pi_UplusJ(g, full) == pi_Uplus(g)
    empty = ParabolicSubset.of(3, [])
    assert pi_UplusJ(g, empty) == identity_g(3)


def test_pi_UplusJ_homomorphism_on_unipotents():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.choice([3, 4])
        from itertools import combinations

        js = rng.choice(
            [c for r in range(n) for c in combinations(range(1, n), r)]
        )
        J = ParabolicSubset.of(n, js)
        u, v = rand_unipotent(n, rng), rand_unipotent(n, rng)
        assert pi_UplusJ(u @ v, J) == pi_UplusJ(u, J) @ pi_UplusJ(v, J)


def test_pi_UminusJ_mirror():
    J = ParabolicSubset.of(3, [1])
    g = generator_y(3, 1, 2) @ generator_y(3, 2, 3)
    assert pi_UminusJ(g, J) == generator_y(3, 1, 2)
    assert pi_UminusJ(g, ParabolicSubset.of(3, [1, 2])) == g
    assert pi_UminusJ(g, ParabolicSubset.of(3, [])) == identity_g(3)
    with pytest.raises(GroupError):
        pi_UminusJ(generator_x(3, 1, 1), J)


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


def test_associated_borel_properties_random():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice([2, 3])
        from itertools import combinations

        js = rng.choice([c for r in range(n) for c in combinations(range(1, n), r)])
        J = ParabolicSubset.of(n, js)
        P = ParabolicPoint(J, rand_factorable(n, rng))
        B = FlagPoint(rand_factorable(n, rng))
        Bp = associated_borel(P, B)
        # contained in P: conjugator transfers into block-upper
        assert la.is_block_upper((P.g.inverse() @ Bp.g).m, J.blocks0())
        assert J.is_min_rep(bruhat_position(B, Bp))


def _borel_inside(parabolic, borel) -> bool:
    """The full flag of the Borel refines the parabolic's partial flag."""
    cols = la.transpose(borel.g.m)
    for step in parabolic.partial_flag():
        d = la.span_dim(step)
        lead = la.transpose(tuple(cols[:d]))
        if la.span_dim(la.span_sum(step, lead)) != d:
            return False
    return True


def test_associated_borel_opposite_side():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.choice([2, 3])
        from itertools import combinations

        js = rng.choice([c for r in range(n) for c in combinations(range(1, n), r)])
        J = ParabolicSubset.of(n, js)
        Q = ParabolicPoint(J, rand_factorable(n, rng), opposite=True)
        B = FlagPoint(rand_factorable(n, rng))
        Bq = associated_borel(Q, B)
        assert _borel_inside(Q, Bq)
        assert J.star().is_min_rep(bruhat_position(B, Bq))


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
    """Opposedness of (P_J, ^h Q_J) coincides with existence of the
    two-sided block factorization of h."""
    rng = random.Random(29)
    J = ParabolicSubset.of(3, [1])
    for w in all_weyl(3):
        h = wdot(w)
        via_lie = opposed(standard_parabolic(J), opposite_parabolic(J).conjugate(h))
        try:
            la.block_anti_ldu(h.m, J.blocks0())
            via_ldu = True
        except FactorizationError:
            via_ldu = False
        assert via_lie == via_ldu, w


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
    assert calls["det"] == 1 and calls["matmul"] == 0
    calls.update(matmul=0, det=0)
    second = borel_minus(n)
    assert calls == {"matmul": 0, "det": 0}
    assert second.g is first.g
