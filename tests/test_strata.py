import random
from fractions import Fraction

import pytest

from tnncompact import linalg as la
from tnncompact.exterior import embedding_data, proj_equal
from tnncompact.matgroup import (
    GroupMatrix,
    generator_x,
    generator_y,
    identity_g,
    torus,
)
from tnncompact.strata import (
    CompactPoint,
    StrataError,
    PositivityCertificateError,
    act,
    base_point,
    fundamental_tuple,
    iJ_of_point,
    levi_in_Lge0_ZL,
    membership_Zgt0,
    membership_entrywise,
    positive_retraction,
    psibar,
    torus_limit,
    z1_membership_diagnostic,
    z1_normal_form_check,
)
from tnncompact.tnn import (
    rand_pos_fraction,
    sample_G_gt0,
    sample_T_gt0,
    sample_Uminus_gt0,
    sample_Uplus_gt0,
)
from tnncompact.weyl import ParabolicSubset, longest_w

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


def test_constructor_rejects_non_opposed():
    from tnncompact.matgroup import wdot
    from tnncompact.weyl import simple_reflection

    J = ParabolicSubset.of(2, [])
    e = identity_g(2)
    with pytest.raises(StrataError):
        CompactPoint(J, e, e, wdot(simple_reflection(2, 1)))


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


def test_levi_cone_test():
    J = ParabolicSubset.of(3, [1])
    good = generator_y(3, 1, 2) @ torus([3, 2]) @ generator_x(3, 1, 5)
    assert levi_in_Lge0_ZL(good, J)
    neg = generator_y(3, 1, -2) @ torus([3, 2]) @ generator_x(3, 1, 5)
    assert not levi_in_Lge0_ZL(neg, J)
    # a flipped block sign is a central rescaling and stays inside
    zeta = GroupMatrix(la.mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert levi_in_Lge0_ZL(zeta @ good, J)


def test_membership_routes_agree_on_the_closure():
    """Where the representation pair matches the stratum exactly, the
    entrywise test and the classifier route decide membership identically on
    sampled points of every cell (all of which lie in the closure):
    entrywise positivity holds exactly on the open cell."""
    from tnncompact.cells import classify, enumerate_cells, sample_cell, top_label

    rng = random.Random(15)
    for n, js in [(2, []), (2, [1]), (3, [1]), (3, [2])]:
        J = ParabolicSubset.of(n, js)
        data = embedding_data(J)
        assert data.exact_criterion
        top = top_label(J)
        labels = [l for l, _ in enumerate_cells(n, J)]
        picked = labels if len(labels) <= 12 else rng.sample(labels, 12)
        if top not in picked:
            picked.append(top)
        for label in picked:
            _, z = sample_cell(label, 33)
            entrywise = membership_entrywise(z, data)
            via_label = classify(z) == top
            assert entrywise == via_label == (label == top), label


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


def test_z1_diagnostic_positive_and_negative():
    from tnncompact.cells import enumerate_cells, sample_cell, top_label
    from tnncompact.verify import _negative_levi_point

    rng = random.Random(14)
    labels = enumerate_cells(3)
    for label, _ in rng.sample(labels, 8):
        _, z = sample_cell(label, 77)
        assert z1_membership_diagnostic(z, label.v, label.vp, samples=2, seed=5)
    J = ParabolicSubset.of(3, [1])
    top = top_label(J)
    for k in range(6):
        z = _negative_levi_point(J, random.Random(200 + k), flip_left=(k % 2 == 0))
        assert not z1_membership_diagnostic(z, top.v, top.vp, samples=2, seed=5)


def test_z1_normal_form_reports_chart_exit():
    # a point whose P-side conjugator is not LDU-factorable counts as False
    from tnncompact.matgroup import wdot

    J = ParabolicSubset.of(2, [1])
    w0 = longest_w(2)
    z = CompactPoint(J, wdot(w0), identity_g(2), wdot(w0))
    assert not z1_normal_form_check(z)


def test_compact_point_is_unhashable():
    """Equality is coset equality, so a field hash would disagree with it."""
    J = ParabolicSubset.of(3, [1])
    z = base_point(J)
    u = generator_x(3, 2, 3)
    assert act(u, identity_g(3), z) == z
    with pytest.raises(TypeError):
        hash(z)
