"""The atlas at n = 2 in closed form: an oracle that shares no code with
``classify``.

At n = 2 the fundamental tuple is one 2×2 matrix, the degree-1 entry.  On
the open stratum J = {1} it is g1·g2, of rank 2; on the closed stratum
J = ∅ it is the outer product of the first column of g1 and the first row
of g2, of rank 1.  A nonnegative point's entry has one sign, and which of
its entries vanish names the point's cell: the four TNN zero patterns of
an invertible 2×2 matrix on J = {1}, and on J = ∅ the three cells of
P¹_{≥0} (two coordinate points and the open arc) for each factor.
"""

import random
from itertools import product

from tnncompact.cells import CellLabel, classify, enumerate_cells, sample_cell
from tnncompact.matgroup import GroupMatrix, identity_g
from tnncompact.strata import CompactPoint, membership_Zgt0
from tnncompact.weyl import ParabolicSubset, WeylElement

E, S = (1, 2), (2, 1)

# (J, which entries of the degree-1 entry are nonzero, row-major; det ≠ 0)
# -> (v, w, v′, w′, y, y′), written by hand
TABLE = {
    # J = {1}: v = w = v′ = w′ = e, and y, y′ say which off-diagonal
    # entries vanish: y = s kills the (2, 1) entry, y′ = s the (1, 2) entry
    ((1,), (1, 1, 1, 1), True): (E, E, E, E, E, E),
    ((1,), (1, 0, 1, 1), True): (E, E, E, E, E, S),
    ((1,), (1, 1, 0, 1), True): (E, E, E, E, S, E),
    ((1,), (1, 0, 0, 1), True): (E, E, E, E, S, S),
    # J = ∅: (v, w) is the cell of g1's first column, (v′, w′) that of
    # g2's first row: (e, e) is e_1, (e, s) the open arc, (s, s) e_2
    ((), (1, 0, 0, 0), False): (E, E, E, E, E, E),
    ((), (1, 1, 0, 0), False): (E, E, E, S, E, E),
    ((), (0, 1, 0, 0), False): (E, E, S, S, E, E),
    ((), (1, 0, 1, 0), False): (E, S, E, E, E, E),
    ((), (1, 1, 1, 1), False): (E, S, E, S, E, E),
    ((), (0, 1, 0, 1), False): (E, S, S, S, E, E),
    ((), (0, 0, 1, 0), False): (S, S, E, E, E, E),
    ((), (0, 0, 1, 1), False): (S, S, E, S, E, E),
    ((), (0, 0, 0, 1), False): (S, S, S, S, E, E),
}

# every integer 2×2 matrix of det 1 with entries in [−4, 4]
SL2 = [
    ((a, b), (c, d))
    for a, b, c, d in product(range(-4, 5), repeat=4)
    if a * d - b * c == 1
]


def _label(J, perms):
    return CellLabel(ParabolicSubset.of(2, J), *map(WeylElement, perms))


def _entry(J, m1, m2):
    """The degree-1 entry of the point (J, m1, m2), by hand."""
    if J:
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*m2)) for row in m1)
    return tuple(tuple(x * y for y in m2[0]) for x in (m1[0][0], m1[1][0]))


def _key(J, m1, m2):
    (a, b), (c, d) = m = _entry(J, m1, m2)
    return J, tuple(int(x != 0) for row in m for x in row), a * d != b * c


def _one_signed(xs):
    return all(x >= 0 for x in xs) or all(x <= 0 for x in xs)


def test_the_table_names_every_sampled_label():
    """Six sampled points of each of the 13 labels at n = 2 land on their
    label's table entry, and the table holds the 13 labels once each."""
    labels = [label for label, _ in enumerate_cells(2)]
    assert len(labels) == len(TABLE) == 13
    assert set(labels) == {_label(J, p) for (J, _, _), p in TABLE.items()}
    for label in labels:
        for seed in range(6):
            z = sample_cell(label, seed)[1]
            J = tuple(sorted(z.J.J))
            assert _label(J, TABLE[_key(J, z.g1.m, z.g2.m)]) == label, (label, seed)


def test_open_stratum_points_classify_by_the_table():
    """Every matrix g of SL2 whose entries have one sign (g and −g are one
    element of PGL_2) is the point (g, e) of Z_{I,≥0}: it gets the table's
    label, and lies in the positive part exactly when no entry vanishes."""
    I, one = ParabolicSubset.of(2, [1]), identity_g(2)
    tnn = [g for g in SL2 if _one_signed(g[0] + g[1])]
    assert (len(SL2), len(tnn)) == (180, 46)
    for g in tnn:
        z = CompactPoint(I, GroupMatrix(g), one)
        assert classify(z) == _label((1,), TABLE[_key((1,), g, one.m)]), g
        assert membership_Zgt0(z) == (0 not in g[0] + g[1]), g


def test_closed_stratum_points_classify_by_the_table():
    """Of the 108² pairs (g1, g2) of SL2 whose first column of g1 and first
    row of g2 each have one sign, 5,184 give a positive point; 2,000 of them
    drawn at a fixed seed, each a point of Z_{∅,≥0}, get the table's label
    and lie in the positive part exactly when neither vector has a zero."""
    empty = ParabolicSubset.of(2, [])
    lefts = [g for g in SL2 if _one_signed((g[0][0], g[1][0]))]
    rights = [g for g in SL2 if _one_signed(g[0])]
    pairs = list(product(lefts, rights))
    assert len(pairs) == 11_664
    assert sum(0 not in (g1[0][0], g1[1][0], *g2[0]) for g1, g2 in pairs) == 5_184
    for g1, g2 in random.Random(2).sample(pairs, 2_000):
        z = CompactPoint(empty, GroupMatrix(g1), GroupMatrix(g2))
        assert classify(z) == _label((), TABLE[_key((), g1, g2)]), (g1, g2)
        assert membership_Zgt0(z) == (0 not in (g1[0][0], g1[1][0], *g2[0])), (g1, g2)
