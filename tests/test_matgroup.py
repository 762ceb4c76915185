import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st
from oracles import (
    block_anti_ldu,
    denominator,
    evaluate_word,
    gauss_jordan_inverse,
    generator_x,
    generator_y,
    identity,
    is_block_lower,
    is_block_upper,
    is_diagonal,
    is_lower_triangular,
    is_signed_permutation,
    laplace_det,
    mr_chart,
    naive_matmul,
    opposed_by_lie_algebra,
    partial_flag,
    rank_profile_cell,
    rational_matmul,
    refusing_signed_permutations,
    sample_L_ge0,
    scale,
    sdot_matrix,
    torus_matrix,
    trusted,
    x_matrix,
    y_matrix,
)

from tnncompact import linalg as la
from tnncompact import serialize as ser
from tnncompact.linalg import FactorizationError
from tnncompact.matgroup import (
    GroupError,
    GroupMatrix,
    _bruhat_left,
    _trusted,
    _word_element,
    associated_borel,
    borel_minus,
    bruhat_cell,
    identity_g,
    pi_factor,
    sdot,
    torus,
    wdot,
)
from tnncompact.strata import CompactPoint, StrataError
from tnncompact.weyl import (
    ParabolicSubset,
    all_parabolic_subsets,
    all_weyl,
    bruhat_leq,
    identity_w,
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


def torus_of(n, rng):
    return torus([Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([1, -1]) for _ in range(n - 1)])


def rand_factorable(n, rng):
    """u t u' is always in the open cell."""
    t = torus_of(n, rng)
    return rand_unipotent(n, rng, lower=True) @ t @ rand_unipotent(n, rng)


def test_generator_basics():
    assert generator_x(3, 1, 0) == identity_g(3)
    a, b = Fraction(2), Fraction(5, 3)
    assert generator_x(2, 1, a) @ generator_x(2, 1, b) == generator_x(2, 1, a + b)
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
        sdot(n, n)
    with pytest.raises(GroupError):
        sdot(n, 0)


def test_products_with_the_identity_check_sizes():
    x = generator_x(3, 1, 1)
    for lhs, rhs in ((identity_g(2), x), (x, identity_g(2)), (identity_g(2), identity_g(3))):
        with pytest.raises(ValueError):
            lhs @ rhs
    assert (identity_g(3) @ x) is x and (x @ identity_g(3)) is x


def test_commutation_in_rank_two():
    # x_1(2)x_2(3) = x_2(3) · (1 + 6E_13) · x_1(2)
    lhs = generator_x(3, 1, 2) @ generator_x(3, 2, 3)
    rows = [list(r) for r in identity(3)]
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
    assert g == GroupMatrix(scale(g.m, Fraction(-1)))
    with pytest.raises(GroupError):
        GroupMatrix(la.mat([[2, 0], [0, 1]]))


def test_equality_is_the_stored_form_up_to_sign_at_even_n():
    """g == h iff M_g = M_h, or M_g = −M_h at even n, on unchecked matrices
    too: −g at odd n, which is no group element, and the all-zero matrix;
    == and the hash read one key, ``canonical``."""
    mats = [
        ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((1, 0), (0, 1)), ((-1, 0), (0, -1)),
        ((0, 0), (0, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), ((0, 0, 0),) * 3,
    ]
    for a in mats:
        for b in mats:
            negated = tuple(tuple(-x for x in row) for row in b)
            want = a == b or (len(a) % 2 == 0 and a == negated)
            assert (_trusted(a) == _trusted(b)) is want, (a, b)
            if want:
                assert hash(_trusted(a)) == hash(_trusted(b))


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
        assert is_lower_triangular(u.m) and la.is_upper_triangular(up.m)
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
    """The position of ^ẇB^+ from B^+ is w."""
    for w in all_weyl(n):
        assert bruhat_cell(wdot(w)) == w


def test_bruhat_position_spec_cases():
    assert bruhat_cell(identity_g(2)).is_identity()
    assert bruhat_cell(sdot(2, 1)) == simple_reflection(2, 1)
    assert bruhat_cell(generator_y(2, 1, 1)) == simple_reflection(2, 1)


def test_bruhat_position_invariant_under_common_conjugation():
    """The position of ^bB^+ from ^aB^+, bruhat_cell(a⁻¹·b), is that of
    ^{gb}B^+ from ^{ga}B^+."""
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice([2, 3])
        a, b, g = (rand_factorable(n, rng) for _ in range(3))
        assert bruhat_cell(a.inverse() @ b) == bruhat_cell((g @ a).inverse() @ (g @ b))


def same_borel(a, b) -> bool:
    """^aB^+ = ^bB^+: a⁻¹·b is upper triangular."""
    return la.is_upper_triangular((a.inverse() @ b).m)


def test_associated_borel_spec_cases():
    J = ParabolicSubset.of(3, [1])
    e = identity_g(3)
    assert associated_borel(J, e, e) == (e, identity_w(3))
    # for J empty, P is already a Borel
    J0 = ParabolicSubset.of(2, [])
    assert associated_borel(J0, identity_g(2), borel_minus(2)) == (identity_g(2), longest_w(2))

    # MR-positive conjugate with w in W^J: (^g P_J)^{B^+} = ^g B^+
    from tnncompact.tnn import mr_evaluate

    rng = random.Random(5)
    for v, w in [((1, 2, 3), (2, 3, 1)), ((1, 3, 2), (2, 3, 1)), ((1, 2, 3), (1, 3, 2))]:
        from tnncompact.weyl import WeylElement

        g = mr_evaluate(*mr_chart(WeylElement(v), WeylElement(w), rng))
        a, u = associated_borel(J, g, e)
        assert same_borel(a, g) and u == WeylElement(w)


def assoc(J, g, opposite, h):
    """(a, u): the Borel of ^gP_J, or of ^gQ_J = ^{g·ẇ₀}P_{J*}, associated
    to ^hB^+, and its position from ^hB^+."""
    if opposite:
        return associated_borel(J.star(), g @ borel_minus(J.n), h)
    return associated_borel(J, g, h)


def _borel_inside(J, g, opposite, b) -> bool:
    """The full flag of ^bB^+ refines the partial flag of ^gP_J (^gQ_J)."""
    cols = la.transpose(b.m)
    for step in partial_flag(J, g, opposite):
        d = la.rank(step)
        lead = la.transpose(tuple(cols[:d]))
        if la.rank(tuple(rs + rl for rs, rl in zip(step, lead))) != d:
            return False
    return True


def check_associated_borel(J, g, opposite, h):
    """The Borel of P = ^gP_J (^gQ_J) associated to ^hB^+ lies in P, at a
    minimal-coset position from ^hB^+: in W^J on the standard side and in
    W^{J*} on the opposite side.  The position associated_borel returns is
    that one."""
    b, u = assoc(J, g, opposite, h)
    assert _borel_inside(J, g, opposite, b)
    pos = bruhat_cell(h.inverse() @ b)
    assert pos == u
    if opposite:
        assert J.star().is_min_rep(u)
    else:
        assert is_block_upper((g.inverse() @ b).m, J.blocks0())
        assert J.is_min_rep(u)


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
        g, h = rand_factorable(n, rng), rand_factorable(n, rng)
        check_associated_borel(J, g, False, h)


def test_associated_borel_opposite_side():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.choice([2, 3])
        J = rng.choice(all_parabolic_subsets(n))
        g, h = rand_factorable(n, rng), rand_factorable(n, rng)
        check_associated_borel(J, g, True, h)


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
                    check_associated_borel(J, g, opposite, wdot(w))
                g = rand_factorable(n, rng)
                u, up = rand_sparse_upper(n, rng), rand_sparse_upper(n, rng)
                check_associated_borel(J, g, opposite, g @ u @ wdot(w) @ up)


def test_associated_borel_sampled_n4():
    rng = random.Random(37)
    n = 4
    ws = all_weyl(n)
    for J in all_parabolic_subsets(n):
        for _ in range(6):
            g = rng.choice([identity_g(n), rand_factorable(n, rng)])
            u, up = rand_sparse_upper(n, rng), rand_sparse_upper(n, rng)
            h = g @ u @ wdot(rng.choice(ws)) @ up
            check_associated_borel(J, g, rng.random() < 0.5, h)


def test_associated_borel_computes_no_rank_or_span(monkeypatch):
    """One elimination and coset arithmetic: no rank, kernel or span call."""

    def forbidden(*args):
        raise AssertionError("associated_borel called a rank or span routine")

    for name in ("rank", "in_span", "span_intersection", "kernel"):
        monkeypatch.setattr(la, name, forbidden)
    rng = random.Random(47)
    J = ParabolicSubset.of(4, [1, 3])
    for opposite in (False, True):
        g, h = rand_factorable(4, rng), rand_factorable(4, rng)
        assoc(J, g, opposite, h)


def double_coset_points(n, rng):
    """(w, u·ẇ·t·u') for every w, with sparse or dense upper unipotent u, u'
    and t in T."""
    for w in all_weyl(n):
        for _ in range(3):
            u = rng.choice([rand_sparse_upper(n, rng), rand_unipotent(n, rng)])
            up = rng.choice([rand_sparse_upper(n, rng), rand_unipotent(n, rng)])
            t = torus([Fraction(rng.choice([-3, 1, 2])) for _ in range(n - 1)])
            yield w, u @ wdot(w) @ t @ up


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_left_every_pivot_pattern(n):
    """m = u·ẇ·t·u' with sparse or dense upper unipotent u, u' and t in T
    factors as b·ẇ·(upper) with b upper unipotent, for every w."""
    for w, m in double_coset_points(n, random.Random(43 + n)):
        b, got = _bruhat_left(m.M)
        assert got == w
        assert la.is_upper_triangular(b.m)
        assert all(b.m[i][i] == 1 for i in range(n))
        assert la.is_upper_triangular(((b @ wdot(w)).inverse() @ m).m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_cell_matches_the_rank_profile(n):
    for w, g in double_coset_points(n, random.Random(110 + n)):
        assert bruhat_cell(g) == rank_profile_cell(g.m) == w


def test_bruhat_cell_matches_the_rank_profile_n5():
    """Seeded det-1 words in x_i(a), y_i(a) (a may be 0), ṡ_i and tori."""
    rng = random.Random(115)
    n = 5
    for _ in range(50):
        g = torus([Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n - 1)])
        for _ in range(rng.randint(1, 12)):
            i = rng.randint(1, n - 1)
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            g = g @ rng.choice([generator_x(n, i, a), generator_y(n, i, a), sdot(n, i)])
        assert bruhat_cell(g) == rank_profile_cell(g.m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_cell_rejects_singular_matrices(n):
    """Zero, repeated, dependent and rank-one rows or columns, let in through
    unchecked: bruhat_cell and the whole profile both raise."""
    rng = random.Random(120 + n)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        i, k = rng.sample(range(n), 2)
        kind = rng.choice(["zero_row", "zero_col", "repeated_row", "dependent_col", "rank_one"])
        if kind == "zero_row":
            rows[i] = [Fraction(0)] * n
        elif kind == "zero_col":
            for row in rows:
                row[i] = Fraction(0)
        elif kind == "repeated_row":
            rows[i] = list(rows[k])
        elif kind == "dependent_col":
            coefs = [rng.randint(-2, 2) if c != i else 0 for c in range(n)]
            for row in rows:
                row[i] = sum(a * x for a, x in zip(coefs, row))
        else:
            rows = [[x * rows[0][c] for c in range(n)] for x in rows[1]]
        m = la.mat(rows)
        assert la.det(m) == 0
        with pytest.raises(GroupError):
            bruhat_cell(trusted(m))
        with pytest.raises(GroupError):
            rank_profile_cell(m)


def test_bruhat_cell_takes_one_rank(monkeypatch):
    """At n = 4 the whole profile is 16 ranks; bruhat_cell takes one, of the
    whole matrix, to reject singular input."""
    points = list(double_coset_points(4, random.Random(125)))
    calls = []
    rank = la.rank

    def counting(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(la, "rank", counting)
    for w, g in points:
        assert bruhat_cell(g) == w
    assert len(calls) == len(points)


def opposed(J, gp, gq) -> bool:
    """Whether ^gp P_J and ^gq Q_J are opposed, as the library decides it:
    gp⁻¹·gq has the two-sided block factorization (la.levi_part), which is
    when CompactPoint.of_triple(J, gp, gq, e) builds a point."""
    try:
        la.levi_part((gp.inverse() @ gq).M, J.blocks0())
    except FactorizationError:
        by_levi = False
    else:
        by_levi = True
    try:
        CompactPoint.of_triple(J, gp, gq, identity_g(J.n))
    except StrataError:
        by_triple = False
    else:
        by_triple = True
    assert by_levi == by_triple, J
    return by_levi


def test_opposed():
    J = ParabolicSubset.of(3, [1])
    e = identity_g(3)
    assert opposed(J, e, e) and opposed_by_lie_algebra(J, e, e)
    rng = random.Random(23)
    u = rand_unipotent(3, rng)
    assert opposed(J, e, u) and opposed_by_lie_algebra(J, e, u)
    # a Borel is not opposed to itself: B^+ = ^{wdot(w0)} B^-
    J0 = ParabolicSubset.of(2, [])
    w0 = wdot(longest_w(2))
    assert not opposed(J0, identity_g(2), w0)
    assert not opposed_by_lie_algebra(J0, identity_g(2), w0)


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
                    assert is_block_lower(q.m, J.blocks0())
                    assert is_block_upper((r @ q @ r.inverse()).m, blocks_star)


def test_opposed_implies_levi_coset_positions():
    """When P_J and ^uQ_J are opposed, their Borels associated to any
    ^hB^+ sit in W_J·w0 relative position."""
    rng = random.Random(41)
    J = ParabolicSubset.of(3, [1])
    w0 = longest_w(3)
    e = identity_g(3)
    for _ in range(10):
        u = rand_unipotent(3, rng)
        assert opposed(J, e, u)
        h = rand_factorable(3, rng)
        pos = bruhat_cell(assoc(J, e, False, h)[0].inverse() @ assoc(J, u, True, h)[0])
        assert J.contains_w(pos * w0)


def test_opposed_matches_two_sided_reduction():
    """Opposedness of (P_J, ^h Q_J), by the Lie-algebra count, coincides with
    existence of the two-sided block factorization of h, and levi_part is
    the middle factor of the oracle's factorization, for every J and every
    ẇ at n = 3."""
    for J in all_parabolic_subsets(3):
        for w in all_weyl(3):
            h = wdot(w)
            via_lie = opposed_by_lie_algebra(J, identity_g(3), h)
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
    """Opposedness by la.levi_part and CompactPoint.of_triple against the
    Lie-algebra dimension count: every J with every ẇ conjugator, then
    random unipotent and generic conjugators on both sides."""
    rng = random.Random(53 + n)
    seen = set()
    e = identity_g(n)
    for J in all_parabolic_subsets(n):
        for w in all_weyl(n):
            expected = opposed_by_lie_algebra(J, e, wdot(w))
            assert opposed(J, e, wdot(w)) == expected, (J, w)
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
            assert opposed(J, gp, gq) == opposed_by_lie_algebra(J, gp, gq), J
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
    assert second is first


# ---------------------------------------------------------------------------
# products with Weyl lifts and the identity: index maps, no matrix product


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_identity_keeps_its_mark(n, monkeypatch):
    """I⁻¹ is I, and wdot(e) is I: products with either return the other
    factor without a matrix product, also after I.inverse()."""
    g = rand_factorable(n, random.Random(130 + n))
    one = identity_g(n)
    assert one.inverse() is one and one.T is one
    calls = []
    monkeypatch.setattr(la, "_product", lambda *args: calls.append(args))
    assert (one @ g) is g and (one.inverse() @ g) is g
    assert (wdot(identity_w(n)) @ g) is g and (g @ one.inverse()) is g
    assert calls == []


def dense_product(n, rng):
    """A product of x_i(a), y_i(a) with a ≠ 0 and a torus with a_1 = 2: not
    a signed permutation."""
    g = torus([Fraction(2)] + [Fraction(rng.choice([-3, 2, 5]), 3) for _ in range(n - 2)])
    for _ in range(2 * n):
        i = rng.randint(1, n - 1)
        a = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        g = g @ rng.choice([generator_x, generator_y])(n, i, a)
    return g


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_products_with_lifts_are_index_maps(n, monkeypatch):
    """ẇ·g and g·ẇ, their transposes and inverses, for every w at n ≤ 4
    and every ṡ_i at n = 5, against row-by-column products; the integer
    product kernel (linalg._product), which multiplies the other factors,
    never sees a lift."""
    rng = random.Random(135 + n)
    lifts = [sdot(n, i) for i in range(1, n)] if n == 5 else [wdot(w) for w in all_weyl(n)]
    g = dense_product(n, rng)
    one = identity(n)
    calls = []
    guarded = refusing_signed_permutations(la._product)
    monkeypatch.setattr(la, "_product", lambda a, b: calls.append(a) or guarded(a, b))
    assert (g @ g).m == naive_matmul(g.m, g.m) and calls
    for s in lifts:
        assert (s @ s.inverse()).m == one and s.inverse().m == la.transpose(s.m)
        for left, right in ((s, g), (g, s)):
            h = left @ right
            want = naive_matmul(left.m, right.m)
            assert h.m == want
            assert h.T.m == la.transpose(want)
            assert naive_matmul(h.inverse().m, want) == one
            assert naive_matmul(h.T.inverse().m, la.transpose(want)) == one
            assert h.inverse().inverse().m == want
        for t in lifts[: 2 * n]:
            assert (s @ t).m == naive_matmul(s.m, t.m)
            assert is_signed_permutation((s @ t.T).inverse().m)


# ---------------------------------------------------------------------------
# det = 1 checked at entry only; lift inverses by transpose, the rest by one
# kept elimination


def no_elimination(*_):
    raise AssertionError("unexpected linalg._adjugate call")


def assert_inverse(g):
    inv = g.inverse()
    assert inv.m == gauss_jordan_inverse(g.m)
    assert inv.inverse() == g


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_lift_inverses_are_closed_form(n, monkeypatch):
    """No lift is eliminated (linalg._adjugate, which inverts every other
    matrix, is refused), while a generator still is."""
    monkeypatch.setattr(la, "_adjugate", no_elimination)
    for w in all_weyl(n):
        assert_inverse(wdot(w))
        assert wdot(w).inverse().m == la.transpose(wdot(w).m)
        assert wdot(w).inverse().inverse() is wdot(w)
    for i in range(1, n):
        assert_inverse(sdot(n, i))
    for g in (identity_g(n), borel_minus(n)):
        assert_inverse(g)
    with pytest.raises(AssertionError, match="_adjugate"):
        generator_x(n, 1, 1).inverse()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_and_torus_inverses_are_closed_form(n):
    rng = random.Random(70 + n)
    for _ in range(10):
        i = rng.randint(1, n - 1)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for gen in (generator_x, generator_y):
            assert_inverse(gen(n, i, a))
            assert gen(n, i, a).inverse().m == gen(n, i, -a).m
        t = torus([Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]) for _ in range(n - 1)])
        assert_inverse(t)
        assert is_diagonal(t.inverse().m)


def chart_matrices(n, rng):
    """Products, inverses and transposes of the matrices the samplers build."""
    from tnncompact.tnn import mr_evaluate, sample_G_gt0

    ws = sorted(all_weyl(n), key=lambda w: w.perm)
    w = rng.choice(ws)
    v = rng.choice([x for x in ws if bruhat_leq(x, w)])
    g = mr_evaluate(*mr_chart(v, w, rng))
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
    one = identity(n)
    for _ in range(4):
        for g in chart_matrices(n, rng):
            assert la.det(g.m) == 1
            assert (g @ g.inverse()).m == one
            assert (g.inverse() @ g).m == one
            assert g.inverse().m == gauss_jordan_inverse(g.m)
            assert g.T.inverse().m == la.transpose(g.inverse().m)


def test_inverse_is_kept(monkeypatch):
    """The caller's matrix is eliminated once, on its first inverse, and
    its inverse is kept on it."""
    g = GroupMatrix(la.mat([[1, 1], [1, 2]]))
    eliminated = []
    adjugate = la._adjugate
    monkeypatch.setattr(la, "_adjugate", lambda a: eliminated.append(tuple(map(tuple, a))) or adjugate(a))
    inv = g.inverse()
    assert eliminated == [g.M] == [((1, 1), (1, 2))]
    assert inv.m == la.mat([[2, -1], [-1, 1]])
    monkeypatch.setattr(la, "_adjugate", no_elimination)
    assert g.inverse() is inv


def test_det_is_checked_where_matrices_enter():
    with pytest.raises(GroupError):
        GroupMatrix(la.mat([[2, 0], [0, 1]]))
    with pytest.raises(GroupError):
        GroupMatrix(la.mat([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(GroupError):
        ser.group_from_json([["2", "0"], ["0", "1"]])
    assert ser.group_from_json([["1", "1"], ["1", "2"]]).m == la.mat([[1, 1], [1, 2]])


def test_an_empty_or_ragged_matrix_is_no_group_element():
    """The empty determinant is 1, but a 0×0 matrix is no element of PGL_n;
    a ragged matrix is refused as not square, before any determinant."""
    for bad in ((), [], ((1, 0), (0,)), ((1, 0, 0), (0, 1), (0, 0, 1))):
        with pytest.raises(GroupError):
            GroupMatrix(bad)


@pytest.mark.parametrize("x", [1.0, True, Decimal(1)])
def test_inexact_entries_are_refused_where_matrices_enter(x):
    """Floats, bools and Decimals never enter a group matrix, although
    these matrices have det = 1: their products would leave exact
    arithmetic."""
    with pytest.raises(GroupError):
        GroupMatrix(((x, 1), (0, 1)))


def test_int_and_fraction_entries_are_accepted():
    assert GroupMatrix(((2, 1), (1, 1))) == GroupMatrix(((Fraction(2), 1), (Fraction(1), Fraction(1))))
    assert GroupMatrix(((Fraction(1, 2), 0), (0, 2))).n == 2


def test_flags_of_different_ranks_are_unequal():
    """A flag is its conjugator: conjugators of different sizes are unequal,
    with no shape error."""
    assert identity_g(2) != identity_g(3)
    assert not borel_minus(3) == borel_minus(2)


# ---------------------------------------------------------------------------
# the integer representation g = M/d against the Fraction oracles


def assert_normalized(g):
    """M is an integer matrix with content 1, det M = dⁿ for d the lcm of
    the denominators of g.m, and g.m = M/d: the one stored form of g."""
    M, d = g.M, denominator(g)
    assert all(type(x) is int for row in M for x in row)
    assert gcd(*(x for row in M for x in row)) == 1
    assert laplace_det(M) == d**g.n
    assert g.m == tuple(tuple(Fraction(x, d) for x in row) for row in M)


@st.composite
def group_words(draw, n):
    """A word of x_i(a), y_i(a) and ṡ_i steps around one torus step, a of
    either sign or zero (nonzero on the torus)."""
    steps = draw(st.lists(
        st.tuples(st.sampled_from("xys"), st.integers(1, n - 1), small_fracs), max_size=8
    ))
    steps = [(kind, i, None if kind == "s" else a) for kind, i, a in steps]
    tor = draw(st.lists(small_fracs.filter(bool), min_size=n - 1, max_size=n - 1))
    steps.insert(draw(st.integers(0, len(steps))), ("t", 0, tuple(tor)))
    return steps


def assert_matches_the_oracles(g, h, w):
    """Products (with lifts too), inverses and transposes of g and h, in
    the Fraction view, equal the Fraction oracles entry for entry, and
    every built matrix keeps the stored form."""
    s = wdot(w)
    built = [g @ h, g.inverse(), g.T, s @ g, g @ s, (g @ h).inverse().T]
    wants = [
        rational_matmul(g.m, h.m),
        gauss_jordan_inverse(g.m),
        la.transpose(g.m),
        rational_matmul(s.m, g.m),
        rational_matmul(g.m, s.m),
        la.transpose(gauss_jordan_inverse(rational_matmul(g.m, h.m))),
    ]
    for got, want in zip(built, wants):
        assert got.m == want
        assert_normalized(got)


@given(st.integers(2, 5), st.data())
def test_group_layer_matches_the_fraction_oracles(n, data):
    """Words against the generic column-operation evaluator over Fraction,
    then products, inverses, transposes and lift products against the
    Fraction product and the Gauss–Jordan inverse."""
    words = [data.draw(group_words(n)) for _ in range(2)]
    g, h = (_word_element(n, word) for word in words)
    for elem, word in zip((g, h), words):
        assert elem.m == evaluate_word(n, word, Fraction(1))
        assert_normalized(elem)
    assert_matches_the_oracles(g, h, data.draw(st.sampled_from(all_weyl(n))))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_words_and_levi_parts_match_the_fraction_oracles(n):
    """Seeded sampler charts (both words of a cell's chart) against the
    Fraction evaluator, and the Levi part that ``CompactPoint.of_triple``
    reads off a triple against the whole two-sided block factorization."""
    from tnncompact.cells import _chart, _chart_words, dimension_of, top_label
    from tnncompact.strata import CompactPoint
    from tnncompact.tnn import rand_pos_fraction

    rng = random.Random(160 + n)
    for J in all_parabolic_subsets(n):
        label = top_label(J)
        coords = [rand_pos_fraction(rng) for _ in range(dimension_of(label))]
        words = _chart_words(_chart(label, coords))
        g, h = (_word_element(n, word) for word in words)
        for elem, word in zip((g, h), words):
            assert elem.m == evaluate_word(n, word, Fraction(1))
            assert_normalized(elem)
        assert_matches_the_oracles(g, h, rng.choice(all_weyl(n)))

        # a⁻¹·x·b = u·t·u' with u upper and u' lower unipotent: opposed
        a, b = g, h.T
        x = a @ rand_unipotent(n, rng) @ torus_of(n, rng) @ rand_unipotent(n, rng, lower=True)
        x = x @ b.inverse()
        z = CompactPoint.of_triple(J, a, b, x)
        m = rational_matmul(rational_matmul(gauss_jordan_inverse(a.m), x.m), b.m)
        levi = block_anti_ldu(m, J.blocks0())[1]
        assert z.g1.m == rational_matmul(a.m, levi)
        assert z.g2.m == gauss_jordan_inverse(b.m)
        assert_normalized(z.g1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_derived_denominator_is_exact_past_float_range(n):
    """A group element stores M alone; ``.m`` derives d as the integer n-th
    root of det M.  Words of many steps over large denominators give
    det M = dⁿ > 2^1100, which no float can hold, and the Fraction view of
    each word, of their product and of an inverse is still the Fraction
    oracle's, with det M = dⁿ."""
    rng = random.Random(180 + n)

    def big():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 10**6), rng.randint(10**5, 10**6))

    words = []
    for _ in range(2):
        steps = [(rng.choice("xy"), rng.randint(1, n - 1), big()) for _ in range(60)]
        steps.insert(30, ("t", 0, tuple(abs(big()) for _ in range(n - 1))))
        words.append(steps)
    g, h = (_word_element(n, word) for word in words)
    assert not hasattr(g, "d")
    for elem, word in zip((g, h), words):
        assert laplace_det(elem.M) > 2**1100
        with pytest.raises(OverflowError):
            float(laplace_det(elem.M))
        assert elem.m == evaluate_word(n, word, Fraction(1))
        assert_normalized(elem)
    for got, want in [
        (g @ h, rational_matmul(g.m, h.m)),
        (g.inverse(), gauss_jordan_inverse(g.m)),
    ]:
        assert got.m == want
        assert_normalized(got)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equality_and_hash_follow_the_stored_form(n):
    """g and −g are one element at even n (and −g is no group element at
    odd n); one matrix built by a product and by the public constructor is
    one element with one stored form and one hash."""
    rng = random.Random(170 + n)
    for _ in range(10):
        g, h = dense_product(n, rng), dense_product(n, rng)
        gh = g @ h
        again = GroupMatrix(rational_matmul(g.m, h.m))
        assert again.M == gh.M and again.m == gh.m
        assert_normalized(again)
        assert again == gh and hash(again) == hash(gh)
        minus = scale(gh.m, Fraction(-1))
        if n % 2:
            with pytest.raises(GroupError):
                GroupMatrix(minus)
            continue
        neg = GroupMatrix(minus)
        assert neg.M == tuple(tuple(-x for x in row) for row in gh.M)
        assert denominator(neg) == denominator(gh)
        assert_normalized(neg)
        assert neg == gh and hash(neg) == hash(gh)
        assert len({neg, gh, again}) == 1
