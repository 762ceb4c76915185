import random
from fractions import Fraction

import pytest
from oracles import (
    coset_equal,
    dense_star_pair,
    fraction_limit_check,
    fraction_membership,
    opposed_by_lie_algebra,
)

from tnncompact import linalg as la
from tnncompact import strata
from tnncompact.cells import classify, enumerate_cells, sample_cell, top_label
from tnncompact.exterior import (
    UnsupportedStratumError,
    embedding_data,
    proj_equal,
    strictly_signed,
)
from tnncompact.matgroup import (
    GroupMatrix,
    generator_x,
    generator_y,
    identity_g,
    opposite_parabolic,
    standard_parabolic,
    torus,
    wdot,
)
from tnncompact.strata import (
    CompactPoint,
    LimitVerificationError,
    StrataError,
    PositivityCertificateError,
    act,
    base_point,
    fundamental_tuple,
    iJ_of_point,
    membership_Zgt0,
    _verify_torus_limit,
    positive_retraction,
    psibar,
    torus_limit,
)
from tnncompact.tnn import (
    rand_pos_fraction,
    sample_G_gt0,
    sample_T_gt0,
    sample_Uminus_gt0,
    sample_Uplus_gt0,
)
from tnncompact.verify import VerifyConfig, _negative_levi_point, suite_retraction
from tnncompact.weyl import ParabolicSubset, all_parabolic_subsets, all_weyl

ALL_J3 = [[], [1], [2], [1, 2]]


def positive_point(J, rng):
    n = J.n
    return act(
        sample_Uminus_gt0(n, rng) @ sample_T_gt0(n, rng),
        sample_Uplus_gt0(n, rng).inverse(),
        base_point(J),
    )


def test_base_point_identities():
    for js in ALL_J3:
        J = ParabolicSubset.of(3, js)
        z = base_point(J)
        assert z.levi == identity_g(3)
        assert psibar(z) == z
        assert psibar(psibar(z)) == z


def test_base_point_open_stratum_is_identity_element():
    J = ParabolicSubset.of(2, [1])
    z = base_point(J)
    data = embedding_data(J)
    m1, m2 = iJ_of_point(z, data)
    assert proj_equal(m2, la.identity(2))


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
    z1 = CompactPoint(J, e, e, generator_y(3, 1, 1) @ generator_x(3, 1, 2))
    z2 = CompactPoint(J, e, e, generator_y(3, 1, 1) @ generator_x(3, 1, 3))
    assert z1 != z2
    # but gamma is insensitive to U_{Q_J} on the right: x_2-part is absorbed
    z3 = CompactPoint(J, e, e, generator_y(3, 1, 1) @ generator_x(3, 1, 2) @ generator_x(3, 2, 5))
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
        assert CompactPoint(J, z.a @ rand_p(), z.b @ rand_q(), z.g) == z
        u_q = generator_y(3, 2, coeff())  # strictly block-lower for J = {1}
        z2 = CompactPoint(J, z.a, z.b, z.g @ (z.b @ u_q @ z.b.inverse()))
        assert z2 == z
        assert membership_Zgt0(z2) == membership_Zgt0(z)


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
        blocks = J.blocks0()
        block_of = {i: k for k, blk in enumerate(blocks) for i in blk}
        outside = [i for i in range(1, n) if i not in J.J]

        def in_block(i, j):
            return block_of[i] == block_of[j]

        def levi():
            t = torus([coeff() for _ in range(n - 1)])
            return unitriangular(True, in_block) @ t @ unitriangular(False, in_block)

        def center():
            """A det-1 block scalar: r^|B'| on a block B, r^-|B| on the next B'."""
            diag = [Fraction(1)] * n
            for blk, nxt in zip(blocks, blocks[1:]):
                r = coeff()
                for i in blk:
                    diag[i] *= r ** len(nxt)
                for i in nxt:
                    diag[i] /= r ** len(blk)
            return GroupMatrix(la.mat([[diag[i] * (i == j) for j in range(n)] for i in range(n)]))

        pairs = 0
        while pairs < PAIRS_PER_STRATUM[n]:
            a = unitriangular(True) @ levi() @ unitriangular(False)
            b = unitriangular(False) @ levi() @ unitriangular(True)
            h = unitriangular(False) @ levi() @ unitriangular(True)  # u_p·l·u_q
            z = CompactPoint(J, a, b, a @ h @ b.inverse())
            p_J = unitriangular(False) @ levi()
            q_J = unitriangular(True) @ levi()
            others = [
                (True, CompactPoint(J, a @ p_J, b @ q_J, z.g)),
                (True, CompactPoint(J, a, b, z.g @ b @ center() @ b.inverse())),
            ]
            if J.J:
                x = generator_x(n, rng.choice(sorted(J.J)), coeff())
                others.append((False, CompactPoint(J, a, b, z.g @ b @ x @ b.inverse())))
            if outside:
                m = a @ generator_y(n, rng.choice(outside), coeff()) @ a.inverse()
                others.append((False, CompactPoint(J, m @ a, b, m @ z.g)))
            for expected, other in others:
                assert coset_equal(z, other) == expected, (J, expected)
                assert (z == other) == expected, (J, expected)
                counts[expected] += 1
                pairs += 1
    assert counts[True] > 0 and counts[False] > 0
    assert sum(counts.values()) >= PAIRS_PER_STRATUM[n] * len(all_parabolic_subsets(n))


def test_constructor_rejects_non_opposed():
    """CompactPoint(J, e, e, ẇ) constructs exactly when P_J is opposed to
    ^ẇQ_J by the Lie-algebra count, and raises StrataError otherwise, for
    every J and every w at n = 2, 3, 4."""
    for n in (2, 3, 4):
        e = identity_g(n)
        outcomes = set()
        for J in all_parabolic_subsets(n):
            for w in all_weyl(n):
                h = wdot(w)
                expected = opposed_by_lie_algebra(
                    standard_parabolic(J), opposite_parabolic(J).conjugate(h)
                )
                outcomes.add(expected)
                if expected:
                    CompactPoint(J, e, e, h)
                else:
                    with pytest.raises(StrataError):
                        CompactPoint(J, e, e, h)
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
def test_carried_levi_parts_match_the_factorization(n):
    """sample_cell, act and psibar carry the Levi part instead of factoring
    a⁻¹·g·b again; ψ̄ transposes it.  Each is checked against the public
    constructor, which factors."""
    rng = random.Random(40 + n)
    strata = all_parabolic_subsets(n)
    for k in range(36):
        J = strata[k % len(strata)]
        label, _ = rng.choice(enumerate_cells(n, J))
        _, z = sample_cell(label, k)
        pz = psibar(z)
        assert pz.levi.m == la.transpose(z.levi.m)
        moved = act(sample_G_gt0(n, rng), sample_G_gt0(n, rng), z)
        for point in (z, pz, moved, psibar(moved)):
            assert point.levi.m == CompactPoint(J, point.a, point.b, point.g).levi.m


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
    assert z.J.full()
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


@pytest.mark.parametrize("n", [3, 4])
def test_limit_check_accepts_only_the_limit_point(n):
    """The Laurent check fails for a point of another stratum and for a
    perturbed g2, as its Fraction oracle does.  It passes for the limit,
    also written with another action pair (g1·t, t⁻¹·g2), t in the torus,
    whose denominators differ from those of (g1, g2)."""
    rng = random.Random(50 + n)
    strata_n = all_parabolic_subsets(n)
    for J in strata_n:
        c = tuple(0 if i in J.J else rng.choice([1, 2]) for i in range(1, n))
        g1, g2 = sample_G_gt0(n, rng), sample_G_gt0(n, rng)
        z = torus_limit(g1, c, g2)
        t = sample_T_gt0(n, rng)
        same = act(g1 @ t, g2.inverse() @ t, base_point(J))
        assert same == z
        for point in (z, same):
            assert fraction_limit_check(g1, c, g2, point)
            _verify_torus_limit(g1, c, g2, point)
        other = strata_n[(strata_n.index(J) + 1) % len(strata_n)]
        wrong = act(g1, g2.inverse(), base_point(other))
        perturbed = g2 @ generator_x(n, 1, rand_pos_fraction(rng))
        for h2, point in ((g2, wrong), (perturbed, z)):
            assert not fraction_limit_check(g1, c, h2, point)
            with pytest.raises(LimitVerificationError):
                _verify_torus_limit(g1, c, h2, point)


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
    z2 = CompactPoint(z.J, z.a, z.b, z.g @ (z.b @ zeta @ z.b.inverse()))
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
                rng = random.Random(300 + k)
                z = _negative_levi_point(J, rng, flip_left=(k % 2 == 0))
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
    that test failing, every one of its cases fails."""
    monkeypatch.setattr(strata, "membership_Zgt0", lambda z: False)
    rep = suite_retraction(VerifyConfig(n=2))
    assert rep.cases == 500
    assert len(rep.failures) == rep.cases


def test_compact_point_is_unhashable():
    """Equality is projective equality of the fundamental tuple, so a field
    hash would disagree with it."""
    J = ParabolicSubset.of(3, [1])
    z = base_point(J)
    u = generator_x(3, 2, 3)
    assert act(u, identity_g(3), z) == z
    with pytest.raises(TypeError):
        hash(z)
