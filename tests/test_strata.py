import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    cauchy_binet_limit_check,
    chart_elements,
    compound_pass_images,
    coset_equal,
    curve_exponents,
    dense_star_pair,
    dual_chart,
    fraction_limit_check,
    fraction_membership,
    generator_x,
    generator_y,
    identity,
    kept_product,
    lmat_from_rational,
    lmat_torus_curve,
    opposed_by_lie_algebra,
    point_equal,
    proj_equal,
    scale,
    top_weight_positions,
    triple,
)

from tnncompact import linalg as la
from tnncompact import exterior, strata, tnn, verify
from tnncompact.cells import classify, dimension_of, enumerate_cells, sample_cell, top_label
from tnncompact.exterior import (
    UnsupportedStratumError,
    _levi_weight_positions,
    compounds,
    embedding_data,
    strictly_signed,
    subsets_colex,
)
from tnncompact.laurent import Laurent, lmat_limit
from tnncompact.matgroup import (
    GroupMatrix,
    identity_g,
    sdot,
    torus,
    wdot,
)
from tnncompact.strata import (
    CompactPoint,
    StrataError,
    PositivityCertificateError,
    act,
    base_point,
    fundamental_tuple,
    iJ_of_point,
    membership_Zgt0,
    point_key,
    positive_retraction,
    psibar,
    torus_limit,
)
from tnncompact.tnn import (
    double_cell_evaluate,
    is_totally_positive,
    rand_pos_fraction,
    sample_G_gt0,
    sample_Uplus_gt0,
)
from tnncompact.verify import VerifyConfig, _lower_cell_points, _negative_levi_point, run_suite
from tnncompact.weyl import ParabolicSubset, all_parabolic_subsets, all_weyl, identity_w, longest_w

ALL_J3 = [[], [1], [2], [1, 2]]


def positive_point(J, rng):
    """(u1·t, u2⁻¹)·z°_J, drawn u1, t, u2; u1·t is the (w₀, e) chart."""
    n, w0 = J.n, longest_w(J.n)
    am = [rand_pos_fraction(rng) for _ in range(w0.length)]
    tor = [rand_pos_fraction(rng) for _ in range(n - 1)]
    return act(
        double_cell_evaluate(w0, identity_w(n), am, tor, ()),
        sample_Uplus_gt0(n, rng).inverse(),
        base_point(J),
    )


def test_base_point_identities():
    for js in ALL_J3:
        J = ParabolicSubset.of(3, js)
        z = base_point(J)
        assert (z.g1, z.g2) == (identity_g(3), identity_g(3))
        assert psibar(z) == z
        assert psibar(psibar(z)) == z


def test_base_point_open_stratum_is_identity_element():
    J = ParabolicSubset.of(2, [1])
    z = base_point(J)
    data = embedding_data(J)
    m1, m2 = iJ_of_point(z, data)
    assert proj_equal(m2, identity(2))


def test_act_identity_and_axiom():
    rng = random.Random(3)
    for js in ALL_J3:
        J = ParabolicSubset.of(3, js)
        z = positive_point(J, rng)
        e = identity_g(3)
        assert act(e, e, z) == z
        g1, g2 = sample_G_gt0(3, rng), sample_G_gt0(3, rng)
        h1, h2 = sample_G_gt0(3, rng), sample_G_gt0(3, rng)
        assert act(g1 @ h1, g2 @ h2, z) == act(g1, g2, act(h1, h2, z))


def test_torus_stabilizer_of_base_point():
    """(t,1)·z°_J = z°_J iff the J-coordinates of t are trivial."""
    J = ParabolicSubset.of(3, [1])
    z = base_point(J)
    e = identity_g(3)
    t_triv = torus([2, 4])  # diag(2,2,1/4): alpha_1 = 1, block scalar on {1,2}
    assert act(t_triv, e, z) == z
    t_move = torus([2, 1])  # diag(2,1/2,1): alpha_1 = 4
    assert act(t_move, e, z) != z


def test_point_equality_rejects_different_levi():
    J = ParabolicSubset.of(3, [1])
    e = identity_g(3)
    z1 = CompactPoint.of_triple(J, e, e, generator_y(3, 1, 1) @ generator_x(3, 1, 2))
    z2 = CompactPoint.of_triple(J, e, e, generator_y(3, 1, 1) @ generator_x(3, 1, 3))
    assert z1 != z2
    # but gamma is insensitive to U_{Q_J} on the right: x_2-part is absorbed
    z3 = CompactPoint.of_triple(
        J, e, e, generator_y(3, 1, 1) @ generator_x(3, 1, 2) @ generator_x(3, 2, 5)
    )
    assert z1 == z3


def test_point_equality_across_representatives():
    """Right-multiplying the conjugators inside P_J and Q_J, or the coset
    representative by the unipotent radicals, never changes the point."""
    rng = random.Random(17)
    J = ParabolicSubset.of(3, [1])

    def coeff():
        return rand_pos_fraction(rng) - rand_pos_fraction(rng)

    def rand_p():  # upper unipotent · y_1 · torus, all inside P_{1}
        u = generator_x(3, 1, coeff()) @ generator_x(3, 2, coeff())
        return u @ generator_y(3, 1, coeff()) @ torus(
            [rand_pos_fraction(rng), rand_pos_fraction(rng)]
        )

    def rand_q():  # lower unipotent · x_1 · torus, all inside Q_{1}
        u = generator_y(3, 1, coeff()) @ generator_y(3, 2, coeff())
        return u @ generator_x(3, 1, coeff()) @ torus(
            [rand_pos_fraction(rng), rand_pos_fraction(rng)]
        )

    for _ in range(10):
        z = positive_point(J, rng)
        a, b, g = triple(z)
        assert CompactPoint.of_triple(J, a @ rand_p(), b @ rand_q(), g) == z
        u_q = generator_y(3, 2, coeff())  # strictly block-lower for J = {1}
        z2 = CompactPoint.of_triple(J, a, b, g @ (b @ u_q @ b.inverse()))
        assert z2 == z
        assert membership_Zgt0(z2) == membership_Zgt0(z)


def levi_centre(J, rng):
    """A random det-1 element of the centre of L_J, which fixes z°_J: a
    block scalar r^|B'| on a block B and r^-|B| on the next B', negated at
    even n."""
    n = J.n
    blocks = J.blocks0()
    diag = [Fraction(-1 if n % 2 == 0 else 1)] * n
    for blk, nxt in zip(blocks, blocks[1:]):
        r = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        for i in blk:
            diag[i] *= r ** len(nxt)
        for i in nxt:
            diag[i] /= r ** len(blk)
    return GroupMatrix(la.mat([[diag[i] * (i == j) for j in range(n)] for i in range(n)]))


PAIRS_PER_STRATUM = {2: 150, 3: 150, 4: 50, 5: 20}


@pytest.mark.parametrize("n", sorted(PAIRS_PER_STRATUM))
def test_equality_agrees_with_coset_equality(n):
    """Equality by the fundamental tuple agrees with the coset test on equal
    pairs (conjugators moved inside P_J and Q_J; Levi parts moved by the
    center of L_J) and on unequal pairs (a non-central Levi perturbation;
    the P-conjugator moved off P_J), for every J."""
    rng = random.Random(70 + n)

    def coeff():
        return Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))

    def unitriangular(below, keep=lambda i, j: True):
        """Random entries below (or above) the diagonal where keep(i, j)."""
        return GroupMatrix(la.mat([
            [1 if i == j else coeff() if (i > j) == below and keep(i, j) else 0 for j in range(n)]
            for i in range(n)
        ]))

    counts = {True: 0, False: 0}
    for J in all_parabolic_subsets(n):
        block_of = {i: k for k, blk in enumerate(J.blocks0()) for i in blk}
        outside = [i for i in range(1, n) if i not in J.J]

        def in_block(i, j):
            return block_of[i] == block_of[j]

        def levi():
            t = torus([coeff() for _ in range(n - 1)])
            return unitriangular(True, in_block) @ t @ unitriangular(False, in_block)

        pairs = 0
        while pairs < PAIRS_PER_STRATUM[n]:
            a = unitriangular(True) @ levi() @ unitriangular(False)
            b = unitriangular(False) @ levi() @ unitriangular(True)
            h = unitriangular(False) @ levi() @ unitriangular(True)  # u_p·l·u_q
            g = a @ h @ b.inverse()
            z = CompactPoint.of_triple(J, a, b, g)
            p_J = unitriangular(False) @ levi()
            q_J = unitriangular(True) @ levi()
            others = [
                (True, CompactPoint.of_triple(J, a @ p_J, b @ q_J, g)),
                (True, CompactPoint.of_triple(J, a, b, g @ b @ levi_centre(J, rng) @ b.inverse())),
            ]
            if J.J:
                x = generator_x(n, rng.choice(sorted(J.J)), coeff())
                others.append((False, CompactPoint.of_triple(J, a, b, g @ b @ x @ b.inverse())))
            if outside:
                m = a @ generator_y(n, rng.choice(outside), coeff()) @ a.inverse()
                others.append((False, CompactPoint.of_triple(J, m @ a, b, m @ g)))
            for expected, other in others:
                assert coset_equal(z, other) == expected, (J, expected)
                assert (z == other) == expected, (J, expected)
                counts[expected] += 1
                pairs += 1
    assert counts[True] > 0 and counts[False] > 0
    assert sum(counts.values()) >= PAIRS_PER_STRATUM[n] * len(all_parabolic_subsets(n))


def test_constructor_rejects_non_opposed():
    """CompactPoint.of_triple(J, e, e, ẇ) constructs exactly when P_J is opposed to
    ^ẇQ_J by the Lie-algebra count, and raises StrataError otherwise, for
    every J and every w at n = 2, 3, 4."""
    for n in (2, 3, 4):
        e = identity_g(n)
        outcomes = set()
        for J in all_parabolic_subsets(n):
            for w in all_weyl(n):
                h = wdot(w)
                expected = opposed_by_lie_algebra(J, e, h)
                outcomes.add(expected)
                if expected:
                    CompactPoint.of_triple(J, e, e, h)
                else:
                    with pytest.raises(StrataError):
                        CompactPoint.of_triple(J, e, e, h)
        assert outcomes == {True, False}


def test_psibar_transposes_matrix_pair():
    rng = random.Random(5)
    for js in [[1], [2]]:
        J = ParabolicSubset.of(3, js)
        data = embedding_data(J)
        z = positive_point(J, rng)
        m1, m2 = iJ_of_point(z, data)
        m3, m4 = iJ_of_point(psibar(z), data)
        assert proj_equal(m3, la.transpose(m1))
        assert proj_equal(m4, la.transpose(m2))


def test_psibar_action_compatibility():
    rng = random.Random(6)
    J = ParabolicSubset.of(3, [2])
    z = positive_point(J, rng)
    g1, g2 = sample_G_gt0(3, rng), sample_G_gt0(3, rng)
    lhs = psibar(act(g1, g2, z))
    rhs = act(g2.T.inverse(), g1.T.inverse(), psibar(z))
    assert lhs == rhs


@pytest.mark.parametrize("n", [3, 4])
def test_triple_formulas_give_the_same_points(n):
    """The triple formulas of sample_cell, act and ψ̄ on (^a P_J, ^b Q_J,
    H·g·U), read through of_triple, give the points the action pairs give,
    by the coset test and by equality:
    sample (g, ψ(g')⁻¹, g·l·ψ(g')), (h1, h2)·(a, b, g) = (h1·a, h2·b,
    h1·g·h2⁻¹) and ψ̄(a, b, g) = (ψ(b)⁻¹, ψ(a)⁻¹, ψ(g))."""
    rng = random.Random(40 + n)
    strata = all_parabolic_subsets(n)

    def moved(t, h1, h2):
        a, b, g = t
        return (h1 @ a, h2 @ b, h1 @ g @ h2.inverse())

    def transposed(t):
        a, b, g = t
        return (b.T.inverse(), a.T.inverse(), g.T)

    for k in range(36):
        J = strata[k % len(strata)]
        label, _ = rng.choice(enumerate_cells(n, J))
        coords, z = sample_cell(label, k)
        g, gp, l = chart_elements(label, coords)
        t = (g, gp.T.inverse(), g @ l @ gp.T)
        h1, h2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
        pairs = [
            (z, t),
            (psibar(z), transposed(t)),
            (act(h1, h2, z), moved(t, h1, h2)),
            (psibar(act(h1, h2, z)), transposed(moved(t, h1, h2))),
        ]
        for point, t in pairs:
            old = CompactPoint.of_triple(J, *t)
            assert coset_equal(point, old), (label, k)
            assert point == old


def test_torus_limit_bare_curve_all_J():
    for n in (2, 3):
        one = identity_g(n)
        import itertools

        for c in itertools.product([0, 1, 2, 3], repeat=n - 1):
            J = ParabolicSubset.of(n, [i + 1 for i, x in enumerate(c) if x == 0])
            assert torus_limit(one, c, one) == base_point(J)


def test_torus_limit_rejects_negative_exponent():
    one = identity_g(2)
    with pytest.raises(StrataError):
        torus_limit(one, (-1,), one)


def test_torus_limit_rejects_pairs_of_different_sizes():
    for g1, g2 in ((identity_g(2), identity_g(3)), (identity_g(3), identity_g(2))):
        with pytest.raises(StrataError):
            torus_limit(g1, (1,) * (g1.n - 1), g2)


@pytest.mark.parametrize("c", [(1.7,), ("2",), (True,)])
def test_torus_limit_rejects_non_integer_exponent(c):
    one = identity_g(2)
    with pytest.raises(StrataError):
        torus_limit(one, c, one)


def test_torus_limit_spec_case_n2():
    g = GroupMatrix(la.mat([[1, 1], [1, 2]]))
    z = torus_limit(g, (1,), g)
    data = embedding_data(ParabolicSubset.of(2, []))
    m1, m2 = iJ_of_point(z, data)
    assert proj_equal(m1, la.mat([[1, 1], [1, 1]]))
    assert membership_Zgt0(z)


def test_torus_limit_zero_vector_is_group_point():
    rng = random.Random(8)
    g1, g2 = sample_G_gt0(2, rng), sample_G_gt0(2, rng)
    z = torus_limit(g1, (0,), g2)
    assert z.J == ParabolicSubset.of(2, [1])
    assert z == act(g1, g2.inverse(), base_point(z.J))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torus_limit_point_is_the_acted_base_point(n):
    """The closed-form point equals (g1, g2⁻¹)·z°_J for every J."""
    rng = random.Random(40 + n)
    for J in all_parabolic_subsets(n):
        c = tuple(0 if i in J.J else rng.choice([1, 2]) for i in range(1, n))
        g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
        z = torus_limit(g1, c, g2)
        assert z.J == J
        assert z == act(g1, g2.inverse(), base_point(J))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_limit_check_accepts_only_the_limit_point(n):
    """The Cauchy–Binet check fails for a point of another stratum and for a
    perturbed g2, as its Laurent oracle does.  It passes for the limit,
    also written with another action pair (g1·t, t⁻¹·g2), t in the torus,
    whose denominators differ from those of (g1, g2)."""
    rng = random.Random(50 + n)
    strata_n = all_parabolic_subsets(n)
    for J in strata_n:
        c = tuple(0 if i in J.J else rng.choice([1, 2]) for i in range(1, n))
        g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
        z = torus_limit(g1, c, g2)
        t = torus([rand_pos_fraction(rng) for _ in range(n - 1)])
        same = act(g1 @ t, g2.inverse() @ t, base_point(J))
        assert same == z
        for point in (z, same):
            assert fraction_limit_check(g1, c, g2, point)
            assert cauchy_binet_limit_check(g1, c, g2, point)
        other = strata_n[(strata_n.index(J) + 1) % len(strata_n)]
        wrong = act(g1, g2.inverse(), base_point(other))
        perturbed = g2 @ generator_x(n, 1, rand_pos_fraction(rng))
        for h2, point in ((g2, wrong), (perturbed, z)):
            assert not fraction_limit_check(g1, c, h2, point)
            assert not cauchy_binet_limit_check(g1, c, h2, point)


def mixed_sign_element(n, rng):
    """A seeded det-1 word: a torus element with coordinates of either sign
    times x_i(a), y_i(a) (a of either sign) and ṡ_i."""
    g = torus([Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n - 1)])
    for _ in range(rng.randint(n, 3 * n)):
        i = rng.randint(1, n - 1)
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        g = g @ rng.choice([generator_x(n, i, a), generator_y(n, i, a), sdot(n, i)])
    return g


def exponents_into(J, rng):
    """Curve exponents landing in J: zero on J, ties elsewhere likely."""
    return tuple(0 if i in J.J else rng.choice([1, 1, 2, 3]) for i in range(1, J.n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cauchy_binet_limit_matches_the_laurent_curve(n):
    """In every degree, the product of the compounds over the subsets of
    largest weight is, entry for entry, the lowest-valuation coefficient of
    the Laurent curve's compound; and those subsets, found from the
    exponents, are the stratum's Levi-weight positions.  Pairs of mixed
    sign, exponents with zeros and ties, every J."""
    rng = random.Random(60 + n)
    for J in all_parabolic_subsets(n):
        for _ in range(6):
            c = exponents_into(J, rng)
            e = curve_exponents(c)
            g1, g2 = mixed_sign_element(n, rng), mixed_sign_element(n, rng)
            curve = lmat_torus_curve(g1.m, [-x for x in e], g2.m)
            levels = zip(compounds(g1.m, n - 1), compounds(g2.m, n - 1), compounds(curve, n - 1))
            for k, (c1, c2, cx) in enumerate(levels, start=1):
                keep = top_weight_positions(e, k)
                assert tuple(keep) == _levi_weight_positions(n, k, J)
                assert kept_product(c1, c2, keep) == lmat_limit(cx)


def test_top_weight_positions_are_the_levi_weight_positions():
    """Why torus_limit needs no check: for every exponent vector with entries
    0..3 at n = 2..7, the subsets of largest curve weight are, in every
    degree, the Levi-weight positions of J = {i : c_i = 0}."""
    for n in range(2, 8):
        for c in product(range(4), repeat=n - 1):
            J = ParabolicSubset.of(n, (i for i, x in enumerate(c, 1) if x == 0))
            e = curve_exponents(c)
            for k in range(1, n):
                assert tuple(top_weight_positions(e, k)) == _levi_weight_positions(n, k, J)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torus_limit_runs_no_compound_ladder(n, monkeypatch):
    def refuse(*_):
        raise AssertionError("compound ladder in torus_limit")

    # the one minor ladder, under every name the package binds it to
    for module in (exterior, strata, tnn):
        monkeypatch.setattr(module, "_kept_minors", refuse)
    rng = random.Random(80 + n)
    for J in all_parabolic_subsets(n):
        g1, g2 = mixed_sign_element(n, rng), mixed_sign_element(n, rng)
        assert torus_limit(g1, exponents_into(J, rng), g2).J == J


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torus_limit_runs_no_laurent_arithmetic(n, monkeypatch):
    def refuse(*_):
        raise AssertionError("Laurent arithmetic in torus_limit")

    monkeypatch.setattr(Laurent, "__mul__", refuse)
    monkeypatch.setattr(Laurent, "__add__", refuse)
    rng = random.Random(70 + n)
    for J in all_parabolic_subsets(n):
        g1, g2 = mixed_sign_element(n, rng), mixed_sign_element(n, rng)
        assert torus_limit(g1, exponents_into(J, rng), g2).J == J


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certificates_build_no_fraction(n, monkeypatch):
    """The certify path (strict total positivity, a torus limit, a positive
    retraction and membership) runs on the integer matrices of its inputs:
    on prebuilt caller-built elements it constructs no Fraction."""
    rng = random.Random(180 + n)
    g1, g2, h1, h2 = (GroupMatrix(sample_G_gt0(n, rng).m) for _ in range(4))
    for c in ((1,) * (n - 1), (0,) + (2,) * (n - 2), (1,) * (n - 2) + (0,)):
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(
            Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        )
        assert Fraction(1, 2) and built  # the count sees Fractions built here
        built.clear()
        assert is_totally_positive(g1) and is_totally_positive(g2)
        z = torus_limit(g1, c, g2)
        assert membership_Zgt0(positive_retraction(h1, h2, z))
        assert membership_Zgt0(z)
        monkeypatch.undo()
        assert built == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fundamental_tuple_builds_no_fraction(n, monkeypatch):
    """The fundamental tuple, the (*) pair, point equality and the hash run
    on the integer pairs (M1, M2): on caller-built points of every stratum
    they construct no Fraction."""
    rng = random.Random(190 + n)
    cases = []
    for J in all_parabolic_subsets(n):
        g1, g2 = (GroupMatrix(sample_G_gt0(n, rng).m) for _ in range(2))
        try:
            data = embedding_data(J)
        except UnsupportedStratumError:
            data = None
        cases.append((CompactPoint(J, g1, g2), CompactPoint(J, GroupMatrix(g1.m), g2), data))
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    )
    assert Fraction(1, 2) and built  # the count sees Fractions built here
    built.clear()
    for z, same, data in cases:
        assert len(fundamental_tuple(z)) == n - 1
        if data is not None:
            assert len(iJ_of_point(z, data)) == 2
        assert z == same and not z == psibar(z) and hash(z) == hash(same)
    monkeypatch.undo()
    assert built == []
    assert any(data is not None for _, _, data in cases)


def test_torus_limit_positive_data_lands_positive():
    rng = random.Random(9)
    for n in (2, 3):
        g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
        z = torus_limit(g1, tuple([1] * (n - 1)), g2)
        assert membership_Zgt0(z)


def test_fundamental_tuple_consistent_with_embedding():
    rng = random.Random(10)
    J = ParabolicSubset.of(3, [1])
    data = embedding_data(J)
    z = positive_point(J, rng)
    tup = fundamental_tuple(z)
    m1, m2 = iJ_of_point(z, data)
    assert proj_equal(tup[0], m2)  # degree 1 carries I_L for J={1}
    assert proj_equal(tup[1], m1)  # degree 2 carries I_1


def points_of_every_kind(n, rng):
    """Points of every stratum at n from each way of making one: the
    constructor, act, ψ̄, torus_limit, positive_retraction and of_triple."""
    for J in all_parabolic_subsets(n):
        g1, g2 = mixed_sign_element(n, rng), mixed_sign_element(n, rng)
        p1, p2, h1, h2 = (sample_G_gt0(n, rng) for _ in range(4))
        z = CompactPoint(J, g1, g2)
        yield from (z, act(h1, h2, z), psibar(z), torus_limit(g1, exponents_into(J, rng), g2))
        yield positive_retraction(h1, h2, CompactPoint(J, p1, p2))
        yield CompactPoint.of_triple(J, h1, h2, h1 @ p1 @ h2.inverse())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kept_tuple_is_the_points_own_images(n):
    """The tuple a point keeps is its own: equal, entry for entry, to a
    fresh compound pass on its pair, before and after equality and
    membership read it, and on a point that equality read first."""
    rng = random.Random(200 + n)
    for z in points_of_every_kind(n, rng):
        fresh = strata._limit_images(z.J, z.g1.M, z.g2.M)
        assert fundamental_tuple(z) == fresh
        same = CompactPoint(z.J, z.g1, z.g2)
        assert same == z
        # ψ̄ transposes every entry of the tuple
        assert (z == psibar(z)) == all(proj_equal(m, tuple(zip(*m))) for m in fresh)
        membership_Zgt0(z)
        assert fundamental_tuple(z) == fresh
        assert fundamental_tuple(same) == fresh


def assert_limit_images_match_the_compound_pass(J, m1, m2):
    assert strata._limit_images(J, m1, m2) == compound_pass_images(J, m1, m2)


def sampled_points(n, rng):
    """Sampled points of every stratum at n ≤ 5, of J = ∅, {2} and I at
    n = 6: each stratum's top cell and a seeded lower cell, and a pair of
    mixed sign."""
    if n <= 5:
        Js = all_parabolic_subsets(n)
        yield from (z for _, _, z in _lower_cell_points(n, 1, 250 + n))
    else:
        Js = [ParabolicSubset.of(n, js) for js in ((), (2,), range(1, n))]
    for J in Js:
        yield sample_cell(top_label(J), rng.randrange(100))[1]
        yield CompactPoint(J, mixed_sign_element(n, rng), mixed_sign_element(n, rng))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_limit_images_match_the_compound_pass_on_sampled_points(n):
    """_limit_images builds only the minors D_k keeps, and on J = I reads
    ρ_k(M1·M2); entry for entry it is the compound pass of two full
    ladders, on the integer pairs and on the rational views of sampled
    points."""
    rng = random.Random(250 + n)
    for z in sampled_points(n, rng):
        assert_limit_images_match_the_compound_pass(z.J, z.g1.M, z.g2.M)
        assert_limit_images_match_the_compound_pass(z.J, z.g1.m, z.g2.m)


@pytest.mark.parametrize("n", [3, 4])
def test_limit_images_match_the_compound_pass_on_limits_and_retractions(n):
    """Torus limits into every stratum, of positive and of mixed-sign
    pairs, and positive retractions of the positive ones, over int,
    Fraction and constant Laurent entries."""
    rng = random.Random(260 + n)
    for J in all_parabolic_subsets(n):
        g1, g2, h1, h2 = (sample_G_gt0(n, rng) for _ in range(4))
        z = torus_limit(g1, exponents_into(J, rng), g2)
        f1, f2 = mixed_sign_element(n, rng), mixed_sign_element(n, rng)
        mixed = torus_limit(f1, exponents_into(J, rng), f2)
        for p in (z, positive_retraction(h1, h2, z), mixed):
            assert_limit_images_match_the_compound_pass(J, p.g1.M, p.g2.M)
            assert_limit_images_match_the_compound_pass(J, p.g1.m, p.g2.m)
            assert_limit_images_match_the_compound_pass(
                J, lmat_from_rational(p.g1.m), lmat_from_rational(p.g2.m)
            )


@pytest.mark.parametrize("n", [3, 4])
def test_limit_images_match_the_compound_pass_over_dual_and_laurent_entries(n):
    """The kernel is ring-generic: on the Dual charts of sampled labels at
    their sampled coordinates, and on Laurent torus curves g1·t(s)·h of
    every stratum, it is the compound pass's entry for entry."""
    rng = random.Random(270 + n)
    for label, seed, _ in _lower_cell_points(n, 1, 270 + n):
        coords, _ = sample_cell(label, seed)
        assert_limit_images_match_the_compound_pass(label.J, *dual_chart(label, coords))
    for J in all_parabolic_subsets(n):
        m1, m2 = (
            lmat_torus_curve(
                mixed_sign_element(n, rng).m,
                curve_exponents(exponents_into(J, rng)),
                sample_G_gt0(n, rng).m,
            )
            for _ in range(2)
        )
        assert_limit_images_match_the_compound_pass(J, m1, m2)


@pytest.mark.parametrize("n", range(2, 8))
def test_kept_sets_are_closed_under_dropping_their_largest_element(n):
    """The kept ladder rests on this: for every J at n ≤ 7, a kept k-subset
    minus its largest element is a kept (k−1)-subset, so every kept minor
    expands along its last column over kept minors."""
    for J in all_parabolic_subsets(n):
        kept = [
            {subsets_colex(n, k)[i] for i in _levi_weight_positions(n, k, J)} for k in range(1, n)
        ]
        for below, level in zip(kept, kept[1:]):
            assert all(t[:-1] in below for t in level)
        (_, steps), products = strata._kept_plan(J)
        assert [k for k, *_ in steps] == list(range(2, n))  # one step per degree 2..n−1
        assert [q for _, q, *_ in products] == [len(level) for level in kept]


def test_a_point_of_size_one_has_an_empty_tuple():
    """At n = 1 there is no degree 1..n−1: the tuple is empty and the
    point is in the positive part."""
    z = CompactPoint(ParabolicSubset.of(1, ()), identity_g(1), identity_g(1))
    assert fundamental_tuple(z) == [] and membership_Zgt0(z)


def test_membership_of_a_retraction_runs_one_compound_pass(monkeypatch):
    """positive_retraction's own membership test computes the output's
    tuple; the caller's membership test and equality read the kept one."""
    calls = []
    images = strata._limit_images
    monkeypatch.setattr(strata, "_limit_images", lambda *a: calls.append(a) or images(*a))
    rng = random.Random(220)
    for n in (2, 3, 4, 5):
        for J in all_parabolic_subsets(n):
            g1, g2, h1, h2 = (sample_G_gt0(n, rng) for _ in range(4))
            z = torus_limit(g1, exponents_into(J, rng), g2)
            calls.clear()
            out = positive_retraction(h1, h2, z)
            assert membership_Zgt0(out)
            assert len(calls) == 1
            assert out == out and membership_Zgt0(out)
            assert len(calls) == 1


def test_fundamental_tuple_returns_a_new_list():
    """Changing the returned list changes neither the kept tuple nor the
    next answer; its entries are tuples, which cannot be changed."""
    z = positive_point(ParabolicSubset.of(4, [2]), random.Random(230))
    want = fundamental_tuple(z)
    got = fundamental_tuple(z)
    assert got is not want and all(type(m) is tuple for m in got)
    got[0] = ((0,),)
    got.pop()
    assert fundamental_tuple(z) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iJ_of_point_matches_the_dense_star_pair(n):
    """The (*) pair read off the fundamental tuple equals, entry for entry,
    the dense product through the 0/1 projectors, on every stratum with a
    (*) pair: positive points, their ψ̄ images, base points and sampled
    cells of the stratum."""
    rng = random.Random(60 + n)
    for J in all_parabolic_subsets(n):
        try:
            data = embedding_data(J)
        except UnsupportedStratumError:
            continue
        labels = [label for label, _ in enumerate_cells(n, J)]
        z = positive_point(J, rng)
        points = [z, psibar(z), base_point(J)]
        points += [sample_cell(label, 70 + k)[1] for k, label in enumerate(rng.sample(labels, 4))]
        for point in points:
            assert iJ_of_point(point, data) == dense_star_pair(point, data), (J, point)


def test_membership_invariant_under_representative_rescaling():
    rng = random.Random(11)
    J = ParabolicSubset.of(3, [1])
    z = positive_point(J, rng)
    assert membership_Zgt0(z)
    # rescale gamma representative by a central element of the Levi
    zeta = GroupMatrix(la.mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    a, b, g = triple(z)
    z2 = CompactPoint.of_triple(z.J, a, b, g @ (b @ zeta @ b.inverse()))
    assert z2 == z
    assert membership_Zgt0(z2)


def test_membership_spec_cases():
    assert not membership_Zgt0(base_point(ParabolicSubset.of(2, [])))
    rng = random.Random(12)
    for js in ALL_J3:
        J = ParabolicSubset.of(3, js)
        z = positive_point(J, rng)
        assert membership_Zgt0(z)
        assert membership_Zgt0(psibar(z))


# Strata whose (*) pair has highest-weight supports exactly I−J and J.
STAR_STRATA = [(2, []), (2, [1]), (3, [1]), (3, [2])]


def test_membership_routes_agree_on_the_closure():
    """On one sampled point of every nonempty cell at n = 2, 3 (all in the
    closure Z_{J,≥0}), the fundamental-tuple test accepts exactly the open
    cell of the stratum.  The paper's (*) matrices agree wherever (*)
    applies (the ψ̄(z) half is their transpose, see
    test_psibar_transposes_matrix_pair), and the classifier on a seeded
    subset of the points."""
    star = {
        ParabolicSubset.of(n, js): embedding_data(ParabolicSubset.of(n, js))
        for n, js in STAR_STRATA
    }
    rng = random.Random(15)
    for n in (2, 3):
        for label, _ in enumerate_cells(n):
            _, z = sample_cell(label, 33)
            top = top_label(label.J)
            member = membership_Zgt0(z)
            assert member == (label == top), label
            assert member == fraction_membership(z), label
            data = star.get(label.J)
            if data is not None:
                pair = iJ_of_point(z, data)
                assert all(strictly_signed(m) for m in pair) == member, label
            if rng.random() < 0.05:
                assert (classify(z) == top) == member, label


def test_membership_matches_labels_at_n4():
    """36 seeded labels of every n = 4 stratum plus its top label, J = {2}
    among them: there Plücker and Lusztig positivity of partial flags
    differ, so the single route is checked against the sampled label."""
    rng = random.Random(16)
    strata = all_parabolic_subsets(4)
    assert ParabolicSubset.of(4, [2]) in strata
    for J in strata:
        top = top_label(J)
        labels = [l for l, _ in enumerate_cells(4, J)]
        for label in rng.sample(labels, 36) + [top]:
            _, z = sample_cell(label, 34)
            member = membership_Zgt0(z)
            assert member == (label == top), label
            assert member == fraction_membership(z), label


def test_membership_accepts_top_cells_at_n5():
    for J in all_parabolic_subsets(5):
        _, z = sample_cell(top_label(J), 35)
        assert membership_Zgt0(z), J


def test_membership_rejects_negative_levi_points():
    """A negated Levi coordinate on either side leaves Z_{J,>0}, for every
    stratum with a nontrivial Levi at n = 3, 4."""
    for n in (3, 4):
        for J in all_parabolic_subsets(n):
            if not J.J:
                continue
            for k in range(4):
                z = _negative_levi_point(J, 300 + k, flip_left=(k % 2 == 0))
                assert not membership_Zgt0(z), (J, k)


def test_positive_retraction():
    rng = random.Random(13)
    n = 3
    # base point with any strict pair lands in the positive part
    for js in ALL_J3:
        h1, h2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
        assert membership_Zgt0(
            positive_retraction(h1, h2, base_point(ParabolicSubset.of(n, js)))
        )
    g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
    z = torus_limit(g1, (0, 1), g2)
    h1, h2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
    out = positive_retraction(h1, h2, z)
    assert membership_Zgt0(out)
    # already-positive points stay positive
    out2 = positive_retraction(h1, h2, out)
    assert membership_Zgt0(out2)
    with pytest.raises(PositivityCertificateError):
        positive_retraction(identity_g(n), h2, z)


def test_suite_retraction_reports_every_failed_membership(monkeypatch):
    """The suite relies on positive_retraction's own membership test: with
    that test failing, every case that expects a retraction fails, the 10
    lower-cell starts of each of the 2 strata at n = 2 included.  The 100
    negative-Levi controls and their count of raises pass, since a raise is
    their expected answer."""
    monkeypatch.setattr(strata, "membership_Zgt0", lambda z: False)
    rep = run_suite("retraction", VerifyConfig(n=2))
    assert rep.cases == 500 + 100 + 1 + 2 * 10
    assert len(rep.failures) == 500 + 2 * 10


def _stratum_of(c, keep_zero):
    n = len(c) + 1
    return ParabolicSubset.of(n, (i + 1 for i, x in enumerate(c) if (x == 0) == keep_zero))


@pytest.mark.parametrize(
    "wrong_limit",
    [
        lambda g1, c, g2: CompactPoint(_stratum_of(c, keep_zero=False), g1, g2),
        lambda g1, c, g2: CompactPoint(_stratum_of(c, keep_zero=True), g1, g1),
    ],
    ids=["stratum-of-the-nonzero-exponents", "g1-in-place-of-g2"],
)
def test_suite_limits_fails_every_curve_of_a_wrong_torus_limit(wrong_limit, monkeypatch):
    """The suite compares each closed-form limit with the limit of its
    curve through a sampled positive pair, so a wrong stratum or a wrong
    group element fails all 12 curve cases at n ≤ 3."""
    monkeypatch.setattr(verify, "torus_limit", wrong_limit)
    rep = run_suite("limits", VerifyConfig(n=3))
    assert rep.cases == 17
    assert len(rep.failures) == 12


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3)])
def test_constructors_reject_matrices_of_another_size(sizes):
    """CompactPoint and of_triple raise StrataError, not a bare ValueError
    from a product or an inverse, when a matrix is not J.n × J.n."""
    J = ParabolicSubset.of(3, [1])
    g1, g2 = (identity_g(k) for k in sizes)
    with pytest.raises(StrataError):
        CompactPoint(J, g1, g2)
    for t in ((g1, g2, g1), (g1, g2, g2), (g1, g1, g2)):
        with pytest.raises(StrataError):
            CompactPoint.of_triple(J, *t)


def stabilizer_pair(J, rng):
    """(p, q) fixing z°_J: p = u·l·c and q = u′·l for l in L_J, c in its
    centre, u in the unipotent radical of P_J and u′ in that of Q_J."""
    n = J.n
    block_of = {i: k for k, blk in enumerate(J.blocks0()) for i in blk}

    def unitriangular(below, same_block):
        return GroupMatrix(la.mat([
            [
                1 if i == j
                else Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
                if (i > j) == below and (block_of[i] == block_of[j]) == same_block
                else 0
                for j in range(n)
            ]
            for i in range(n)
        ]))

    l = unitriangular(True, True) @ levi_centre(J, rng) @ unitriangular(False, True)
    return unitriangular(False, False) @ l @ levi_centre(J, rng), unitriangular(True, False) @ l


def equal_partners(z, rng):
    """Other representatives of the point z: ψ̄(ψ̄(z)), z's pair moved by
    the centre of L_J and by a pair fixing z°_J, and, at even n, −g1."""
    p, q = stabilizer_pair(z.J, rng)
    yield psibar(psibar(z))
    yield CompactPoint(z.J, z.g1 @ levi_centre(z.J, rng), z.g2)
    yield CompactPoint(z.J, z.g1 @ p, q.inverse() @ z.g2)
    if z.n % 2 == 0:
        yield CompactPoint(z.J, GroupMatrix(scale(z.g1.m, Fraction(-1))), z.g2)


@settings(max_examples=10)
@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_equal_points_hash_equally(n, rng):
    """Equal points have one hash and make one element of a set, whichever
    way they were made and however their pairs were moved."""
    for z in points_of_every_kind(n, rng):
        same = list(equal_partners(z, rng))
        for w in same:
            assert w == z and hash(w) == hash(z)
        assert len({z, *same}) == 1


def test_hashes_are_not_degenerate():
    """The samples of every n = 3 label at two seeds give as many distinct
    hashes as distinct points.  The oracle counts the points: samples of
    two labels lie in disjoint cells, and the two samples of one label are
    one point exactly when the oracle's cross-multiplication says so, which
    is on the 36 cells of dimension 0."""
    samples = [
        (label, [sample_cell(label, seed)[1] for seed in (1, 2)])
        for label, _ in enumerate_cells(3)
    ]
    distinct = sum(1 if point_equal(*zs) else 2 for _, zs in samples)
    points = [z for _, zs in samples for z in zs]
    assert distinct == 2 * len(samples) - sum(dimension_of(label) == 0 for label, _ in samples)
    assert len({hash(z) for z in points}) == distinct == len(set(points))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_key_agrees_with_the_oracle(n):
    """Keys, and so ==, agree with the oracle's cross-multiplication of
    fundamental tuples on equal pairs (z and ψ̄(ψ̄(z)); z's pair moved by
    the centre of L_J, by a pair fixing z°_J and, at even n, by −1) and on
    unequal pairs (the samples at two seeds of a cell of positive
    dimension; samples of two cells)."""
    rng = random.Random(240 + n)
    pairs = [(True, z, w) for z in points_of_every_kind(n, rng) for w in equal_partners(z, rng)]
    cells = list(_lower_cell_points(n, 3, 250 + n))
    for (label, seed, z), (other, _, w) in zip(cells, cells[1:]):
        pairs.append((dimension_of(label) == 0, z, sample_cell(label, seed + 1)[1]))
        if other != label:
            pairs.append((False, z, w))
    for expected, z, w in pairs:
        assert point_equal(z, w) == expected
        assert (point_key(z) == point_key(w)) == expected
        assert (z == w) == expected
    assert {expected for expected, _, _ in pairs} == {True, False}


def test_signs_read_the_raw_tuple_and_build_no_key():
    """membership_Zgt0 and positive_retraction read the kept tuple's signs:
    neither builds the key of its input or of its output."""
    rng = random.Random(260)
    for n in (2, 3, 4):
        for J in all_parabolic_subsets(n):
            g1, g2, h1, h2 = (sample_G_gt0(n, rng) for _ in range(4))
            z = torus_limit(g1, exponents_into(J, rng), g2)
            out = positive_retraction(h1, h2, z)
            assert membership_Zgt0(z) and membership_Zgt0(out)
            assert "_images" in out.__dict__
            assert "_key" not in z.__dict__ and "_key" not in out.__dict__
