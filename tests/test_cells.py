import gc
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from oracles import (
    chart_elements,
    denominator,
    dual_chart,
    dual_jacobian_rank,
    dual_rank,
    dual_words,
    generator_x,
    generator_y,
    identity,
    refusing_signed_permutations,
)

from tnncompact.cells import (
    CellError,
    CellLabel,
    EmptyCellError,
    _chart,
    _chart_words,
    _quotient_layout,
    _tangent_rank,
    chart_point,
    classify,
    dimension_of,
    enumerate_cells,
    jacobian_rank_check,
    sample_cell,
    top_label,
)
from tnncompact.matgroup import torus
from tnncompact.serialize import label_to_json, point_to_json
from tnncompact.strata import (
    CompactPoint,
    act,
    base_point,
    membership_Zgt0,
    positive_retraction,
    psibar,
    torus_limit,
)
from tnncompact.tnn import sample_G_gt0
from tnncompact.weyl import (
    ParabolicSubset,
    ReducedWord,
    WeylElement,
    all_parabolic_subsets,
    all_weyl,
    bruhat_leq,
    identity_w,
    lex_min_reduced_word,
    longest_w,
)


def L(n, js, v, w, vp, wp, y, yp):
    return CellLabel(
        ParabolicSubset.of(n, js),
        WeylElement(v),
        WeylElement(w),
        WeylElement(vp),
        WeylElement(wp),
        WeylElement(y),
        WeylElement(yp),
    )


def test_label_validity():
    with pytest.raises(CellError):  # w not a minimal coset rep
        L(3, [1], (1, 2, 3), (2, 1, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3))
    with pytest.raises(CellError):  # y outside W_J
        L(3, [1], (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 3, 2), (1, 2, 3))
    lbl = L(3, [1], (1, 3, 2), (2, 3, 1), (1, 2, 3), (1, 3, 2), (2, 1, 3), (1, 2, 3))
    assert lbl.is_valid() and lbl.is_nonempty()
    e4, w04 = identity_w(4), longest_w(4)
    with pytest.raises(CellError):  # permutations of another rank than J
        CellLabel(ParabolicSubset.of(3, []), e4, w04, e4, w04, e4, e4)
    with pytest.raises(CellError):  # one permutation of another rank
        L(3, [1], (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3, 4))


def test_dimension_spec_cases():
    # open stratum, torus cell: d = |I|
    d = dimension_of(L(2, [1], (1, 2), (1, 2), (1, 2), (1, 2), (2, 1), (2, 1)))
    assert d == 1
    # open cell of the closed stratum at n=2
    assert dimension_of(L(2, [], (1, 2), (2, 1), (1, 2), (2, 1), (1, 2), (1, 2))) == 2
    # a vertex
    assert dimension_of(L(2, [], (2, 1), (2, 1), (2, 1), (2, 1), (1, 2), (1, 2))) == 0
    # top cell of the open stratum at n=2: d = 2 l(w0) + |I| = 3
    assert dimension_of(top_label(ParabolicSubset.of(2, [1]))) == 3
    # codimension-one boundary top cell at n=3
    assert dimension_of(top_label(ParabolicSubset.of(3, [1]))) == 7
    # empty label refuses
    empty = L(3, [1], (2, 1, 3), (2, 3, 1), (1, 2, 3), (1, 3, 2), (1, 2, 3), (1, 2, 3))
    assert not empty.is_nonempty()
    with pytest.raises(EmptyCellError):
        dimension_of(empty)


def test_top_cell_dimension_matches_open_part():
    """The open cell of each stratum has dimension 2·l(w0) + |J|."""
    from itertools import combinations

    for n in (2, 3):
        w0_len = longest_w(n).length
        for r in range(n):
            for js in combinations(range(1, n), r):
                J = ParabolicSubset.of(n, js)
                assert dimension_of(top_label(J)) == 2 * w0_len + len(js)


def test_census_n2():
    cells = enumerate_cells(2)
    assert len(cells) == 13
    by_j = {}
    for label, d in cells:
        by_j.setdefault(len(label.J.J), []).append(d)
    assert len(by_j[0]) == 9 and len(by_j[1]) == 4
    assert sorted(d for _, d in cells) == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3]
    assert sum((-1) ** d for _, d in cells) == 1


def test_census_n3_regression():
    cells = enumerate_cells(3)
    assert len(cells) == 685
    assert sum((-1) ** d for _, d in cells) == 1
    per_j = {}
    for label, _ in cells:
        per_j[tuple(sorted(label.J.J))] = per_j.get(tuple(sorted(label.J.J)), 0) + 1
    assert per_j == {(): 361, (1,): 144, (2,): 144, (1, 2): 36}


def test_census_single_stratum():
    cells = enumerate_cells(3, ParabolicSubset.of(3, [1, 2]))
    assert len(cells) == 36  # y, y' free over W


def test_census_deterministic_order():
    a = enumerate_cells(3)
    b = enumerate_cells(3)
    assert [(l.sort_key(), d) for l, d in a] == [(l.sort_key(), d) for l, d in b]


def test_enumerate_bounds():
    with pytest.raises(CellError):
        enumerate_cells(1)
    with pytest.raises(CellError):
        enumerate_cells(6)


def test_enumerate_rejects_a_stratum_of_another_rank():
    from tnncompact.serialize import cells_to_json

    J = ParabolicSubset.of(2, [1])
    with pytest.raises(CellError):
        enumerate_cells(4, J)
    with pytest.raises(CellError):
        cells_to_json(4, J)


@pytest.mark.parametrize("n", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_census_matches_brute_force_oracle(n):
    """Labels, dimensions and order equal the brute-force census (dimensions
    counted from chart coordinates) sorted by sort_key."""
    from tnncompact.verify import _census_oracle

    got = enumerate_cells(n)
    assert got == sorted(_census_oracle(n), key=lambda t: t[0].sort_key())
    assert all(label.is_valid() and label.is_nonempty() for label, _ in got)


@pytest.mark.parametrize(
    "n, count", [(2, 0), (3, 104), pytest.param(4, 53852, marks=pytest.mark.slow)]
)
def test_empty_label_count(n, count):
    """The valid labels with v or v' outside W^J: the brute-force walk's
    complement of the census."""
    from tnncompact.verify import _empty_labels

    empties = _empty_labels(n)
    assert len(empties) == count
    assert not any(label.is_nonempty() for label in empties)


def test_brute_force_labels_do_not_read_the_census(monkeypatch):
    """The oracle and the empty labels walk W themselves: with the census
    walk, enumeration, dimension formula, coset reps and emptiness test all
    failing, they still find the 685 cells and the 104 empty labels at
    n = 3."""
    from tnncompact import cells, verify

    def fail(*_):
        pytest.fail("the brute-force walk read the census")

    for module in (cells, verify):
        for name in ("_stratum_walk", "enumerate_cells", "dimension_of"):
            monkeypatch.setattr(module, name, fail)
    monkeypatch.setattr(ParabolicSubset, "min_coset_reps", fail)
    monkeypatch.setattr(CellLabel, "is_nonempty", fail)
    assert len(verify._census_oracle(3)) == 685
    assert len(verify._empty_labels(3)) == 104


def test_census_n4_sampled_labels_are_valid():
    cells = enumerate_cells(4)
    assert len(cells) == 109729
    for label, d in random.Random(4).sample(cells, 500):
        assert label.is_valid() and label.is_nonempty()
        assert d == dimension_of(label)


def test_enumerate_checks_bruhat_once_per_pair(monkeypatch):
    """No label is revalidated and no dimension recomputed: v ≤ w is decided
    once per pair (v, w) of W^J."""
    import tnncompact.cells as cells_mod
    from tnncompact.weyl import all_parabolic_subsets

    calls = []

    def counting_leq(v, w):
        calls.append((v, w))
        return bruhat_leq(v, w)

    def refuse(*args):
        raise AssertionError("label revalidated during enumeration")

    monkeypatch.setattr(cells_mod, "bruhat_leq", counting_leq)
    monkeypatch.setattr(cells_mod, "dimension_of", refuse)
    monkeypatch.setattr(CellLabel, "is_valid", refuse)
    assert len(enumerate_cells(3)) == 685
    assert len(calls) == sum(
        len(J.min_coset_reps()) ** 2 for J in all_parabolic_subsets(3)
    )


def test_label_only_work_runs_once_per_label(monkeypatch):
    """Repeated samples and Jacobian checks of one n = 3 label compute each
    lex-min word and each positive subexpression once, and a repeated
    dimension_of computes no inversion count.  The label's parts are built
    publicly, so nothing is kept on them before the first call."""
    from tnncompact import weyl

    calls = Counter()

    def counting(name):
        fn = getattr(weyl, name)

        def wrapped(*args):
            calls[(name, *map(id, args))] += 1
            return fn(*args)

        monkeypatch.setattr(weyl, name, wrapped)

    for name in ("_inversions", "_lex_min_word", "_positive_subexpression"):
        counting(name)
    label = L(3, [1], (1, 2, 3), (2, 3, 1), (1, 3, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3))
    first = [sample_cell(label, 1), jacobian_rank_check(label, 1)]
    assert all(k == 1 for key, k in calls.items() if key[0] != "_inversions")
    assert {("_lex_min_word", id(label.w)), ("_lex_min_word", id(label.wp))} <= set(calls)
    assert sum(key[0] == "_positive_subexpression" for key in calls) == 2
    calls.clear()
    for seed in (1, 2, 3):
        assert jacobian_rank_check(label, seed)
        coords, z = sample_cell(label, seed)
        assert len(coords) == dimension_of(label) == dimension_of(label)
        assert classify(z) == label
    assert [sample_cell(label, 1), jacobian_rank_check(label, 1)] == first
    assert not calls


def test_sample_cell_refuses_empty():
    empty = L(3, [1], (2, 1, 3), (2, 3, 1), (1, 2, 3), (1, 3, 2), (1, 2, 3), (1, 2, 3))
    with pytest.raises(EmptyCellError):
        sample_cell(empty, 1)


# (1, h)·z for z sampled in a nonempty cell at a seed: each point's
# relative positions form an empty label, with v' = 2143 outside W^J.
EMPTY_LABEL_POINTS = [
    (
        L(4, [3], (1, 3, 2, 4), (2, 3, 1, 4), (2, 1, 3, 4), (4, 1, 2, 3),
          (1, 2, 3, 4), (1, 2, 4, 3)),
        844036,
        generator_x(4, 2, 3),
    ),
    (
        L(4, [2, 3], (1, 2, 3, 4), (2, 1, 3, 4), (2, 1, 3, 4), (4, 1, 2, 3),
          (1, 3, 4, 2), (1, 3, 4, 2)),
        286387,
        generator_y(4, 3, 1),
    ),
]


@pytest.mark.parametrize("label, seed, h", EMPTY_LABEL_POINTS, ids=["J3", "J23"])
def test_classify_refuses_an_empty_label(label, seed, h):
    from tnncompact.matgroup import identity_g

    z = act(identity_g(4), h, sample_cell(label, seed)[1])
    with pytest.raises(EmptyCellError, match=r"v'=\(2, 1, 4, 3\)"):
        classify(z)


def test_sample_top_cell_open_stratum_is_strictly_positive():
    from tnncompact.tnn import is_totally_positive

    J = ParabolicSubset.of(2, [1])
    _, z = sample_cell(top_label(J), 3)
    # the open stratum point is a group element: its gamma rep is the matrix
    assert is_totally_positive(z.g1 @ z.g2)
    assert membership_Zgt0(z)


def test_sample_closed_stratum_flags_positive():
    J = ParabolicSubset.of(2, [])
    _, z = sample_cell(top_label(J), 5)
    assert membership_Zgt0(z)


def test_classify_base_point():
    for n, js in [(2, []), (2, [1]), (3, [1]), (3, []), (3, [1, 2])]:
        J = ParabolicSubset.of(n, js)
        label = classify(base_point(J))
        e = identity_w(n)
        w0j = J.longest_element()
        assert (label.v, label.w, label.vp, label.wp) == (e, e, e, e)
        assert label.y == w0j and label.yp == w0j
        assert dimension_of(label) == len(J.J)


def test_classify_group_element_double_cell():
    from tnncompact.matgroup import identity_g
    from tnncompact.strata import CompactPoint

    rng = random.Random(31)
    J = ParabolicSubset.of(3, [1, 2])
    g = sample_G_gt0(3, rng)
    label = classify(CompactPoint(J, g, identity_g(3)))
    # strictly positive elements sit in the big double cell: y = y' = e
    assert label == top_label(J)


def test_classify_raises_when_a_position_leaves_its_coset(monkeypatch):
    """classify leaves label validity to CellLabel: a Levi position outside
    W_J raises CellError."""
    import tnncompact.cells as cells

    z = base_point(ParabolicSubset.of(3, [1]))
    monkeypatch.setattr(cells, "_gamma_position", lambda *_: identity_w(3))  # y = w0
    with pytest.raises(CellError):
        classify(z)


def test_roundtrip_all_labels_n2():
    for label, _ in enumerate_cells(2):
        for seed in range(3):
            _, z = sample_cell(label, seed)
            assert classify(z) == label


def test_classify_labels_are_pinned():
    """The labels classify reads off one sampled point (seed 1) of every
    nonempty cell at n = 2, 3, pinned by SHA-256: a faster classifier must
    give them byte for byte."""
    labels = [label for n in (2, 3) for label, _ in enumerate_cells(n)]
    got = [label_to_json(classify(sample_cell(label, 1)[1])) for label in labels]
    assert len(got) == 698
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == "9edbbab81706df8768834c4345d937b8578e2ee5fa48ec9f5c7b6ccf28565ea6"


def test_limit_and_retraction_labels_are_pinned():
    """The labels classify reads off torus limits, which the sampler does
    not draw, and off their positive retractions: for every c in
    {0, 1, 2}^(n−1) at n = 3, 4, the limit of (g1, g2⁻¹)·t(s) for seeded
    positive g1, g2 and its retraction by seeded positive h1, h2, pinned by
    SHA-256."""
    got = []
    for n in (3, 4):
        for k, c in enumerate(product((0, 1, 2), repeat=n - 1)):
            rng = random.Random(1000 * n + k)
            g1, g2, h1, h2 = (sample_G_gt0(n, rng) for _ in range(4))
            z = torus_limit(g1, c, g2)
            got.append(label_to_json(classify(z)))
            got.append(label_to_json(classify(positive_retraction(h1, h2, z))))
    assert len(got) == 72
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == "3d8294a07f3f9bec5bfe5980dc57c751a124044c5b44738eeb652b70d287d413"


def test_sampled_points_are_pinned():
    """The point sample_cell draws (seeds 0 and 1) in every nonempty cell at
    n = 2, 3, pinned by SHA-256: the sampler's chart and the order it draws
    coordinates in must give the same points byte for byte."""
    labels = [label for n in (2, 3) for label, _ in enumerate_cells(n)]
    got = [point_to_json(sample_cell(label, s)[1]) for label in labels for s in (0, 1)]
    assert len(got) == 1396
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == "972d05b5009392fbc4c98fbb3b9a90fb1aef3e025f8486b296825027dfa365b4"


def test_sample_cell_returns_the_coordinates_it_drew():
    """For every nonempty cell at n = 2, 3, sample_cell returns
    dimension_of(label) positive coordinates, and chart_point replays them
    to the sampled point: the same integer matrices over the same
    denominators."""
    for n in (2, 3):
        for k, (label, dim) in enumerate(enumerate_cells(n)):
            coords, z = sample_cell(label, k)
            assert len(coords) == dim == dimension_of(label)
            assert all(c > 0 for c in coords)
            replay = chart_point(label, coords)
            assert [(g.M, denominator(g)) for g in (replay.g1, replay.g2)] == [
                (g.M, denominator(g)) for g in (z.g1, z.g2)
            ], label


def test_chart_point_cuts_coordinates_in_one_order():
    """The top cell of J = {1} at n = 3 has 7 chart coordinates: two free
    steps per flag chart over the word (1, 2) of s_1·s_2, the coroot of 1,
    then the Levi's lower and upper legs.  The point is the product written
    out by generators, and it stays defined for a zero or negative Levi
    coordinate."""
    J = ParabolicSubset.of(3, [1])
    label = top_label(J)
    word = ReducedWord(3, (1, 2))
    assert label.w == J.max_coset_rep() and lex_min_reduced_word(label.w) == word

    def y_word(a):  # y_1(a_1)·y_2(a_2), the y-word of (1, 2)
        return generator_y(3, 1, a[0]) @ generator_y(3, 2, a[1])

    def by_generators(c):
        g1 = y_word(c[:2]) @ generator_y(3, 1, c[5]) @ torus([c[4], 1])
        return CompactPoint(J, g1 @ generator_x(3, 1, c[6]), y_word(c[2:4]).T)

    coords = [Fraction(k, 3) for k in range(1, 8)]
    assert dimension_of(label) == len(coords)
    for c in [coords] + [coords[:k] + [x] + coords[k + 1 :] for k in (5, 6) for x in (0, -1)]:
        assert chart_point(label, c) == by_generators(c)


def test_chart_point_rejects_bad_coordinates():
    """A short list, a long list and a zero coroot raise CellError."""
    label = top_label(ParabolicSubset.of(3, [1]))
    coords = [Fraction(k, 3) for k in range(1, 8)]
    for bad in (coords[:-1], coords + [Fraction(1)], coords[:4] + [0] + coords[5:]):
        with pytest.raises(CellError):
            chart_point(label, bad)


def test_roundtrip_random_labels_n3():
    rng = random.Random(8)
    labels = enumerate_cells(3)
    for label, _ in rng.sample(labels, 60):
        _, z = sample_cell(label, 11)
        assert classify(z) == label


def test_classify_commutes_with_psibar_swap():
    """ψ̄ swaps the flag labels and swap-inverts the coset labels (the
    transpose of a double-cell chart reverses its words)."""
    rng = random.Random(9)
    labels = enumerate_cells(3)
    for label, _ in rng.sample(labels, 20):
        _, z = sample_cell(label, 21)
        got = classify(psibar(z))
        assert (got.v, got.w, got.vp, got.wp) == (label.vp, label.wp, label.v, label.w)
        assert (got.y, got.yp) == (label.yp.inverse(), label.y.inverse())


def test_jacobian_n2_all():
    for label, _ in enumerate_cells(2):
        assert jacobian_rank_check(label, 300)


def test_jacobian_zero_dimensional():
    lbl = L(2, [], (2, 1), (2, 1), (2, 1), (2, 1), (1, 2), (1, 2))
    assert dimension_of(lbl) == 0
    assert jacobian_rank_check(lbl, 1)


def _merged_free_steps(chart_words):
    """chart_words with word 1's second free step moved next to its first,
    with the first step's generator and its own coordinate: the chart then
    runs through z_i(a)·z_i(b) = z_i(a + b), and two of its tangent
    vectors coincide."""

    def merged(chart):
        word1, word2 = chart_words(chart)
        free = [k for k, (kind, _, _) in enumerate(word1) if kind in ("x", "y")]
        if len(free) >= 2:
            first, second = free[:2]
            kind, i, _ = word1[first]
            step = (kind, i, word1[second][2])
            word1 = word1[:second] + word1[second + 1 :]
            word1.insert(first + 1, step)
        return word1, word2

    return merged


def test_jacobian_rank_check_fails_a_chart_with_a_repeated_tangent(monkeypatch):
    """Negative control: on every n ≤ 3 label with two free steps in word 1,
    the check is True on the chart and False once those steps are merged."""
    import tnncompact.cells as cells

    labels = []
    for n in (2, 3):
        for label, dim in enumerate_cells(n):
            word1, _ = _chart_words(_chart(label, [Fraction(1)] * dim, Fraction(1)))
            if sum(kind in ("x", "y") for kind, _, _ in word1) >= 2:
                labels.append(label)
    assert len(labels) == 283
    assert all(jacobian_rank_check(label, k) for k, label in enumerate(labels))
    monkeypatch.setattr(cells, "_chart_words", _merged_free_steps(_chart_words))
    assert not any(jacobian_rank_check(label, k) for k, label in enumerate(labels))


def test_jacobian_rank_check_ranks_the_sample_once(monkeypatch):
    """One _full_rank call per check, on the chart words at the coordinates
    of sample_cell(label, seed), for every label at n ≤ 3; a chart with two
    merged free steps is refused at that one point too, with no retry."""
    import tnncompact.cells as cells

    full, calls = cells._full_rank, []
    monkeypatch.setattr(cells, "_full_rank", lambda *args: calls.append(args) or full(*args))
    for n in (2, 3):
        for k, (label, d) in enumerate(enumerate_cells(n)):
            calls.clear()
            assert jacobian_rank_check(label, k)
            words = _chart_words(_chart(label, sample_cell(label, k)[0], Fraction(1)))
            assert calls == [(label.J, *words, d)], label
    label = top_label(ParabolicSubset.of(3, []))
    monkeypatch.setattr(cells, "_chart_words", _merged_free_steps(_chart_words))
    calls.clear()
    assert not jacobian_rank_check(label, 0)
    assert len(calls) == 1


def test_full_rank_certificate_falls_back_on_every_miss(monkeypatch):
    """With p = 5 the certificate misses often, on a rank drop mod 5 or a
    value 5 with no inverse, the exact rank decides, and every n ≤ 3
    verdict stays True."""
    import tnncompact.cells as cells

    exact = cells._tangent_rank
    fallbacks = []
    monkeypatch.setattr(cells, "_P", 5)
    monkeypatch.setattr(cells, "_tangent_rank", lambda *words: fallbacks.append(words) or exact(*words))
    labels = [label for n in (2, 3) for label, _ in enumerate_cells(n)]
    assert all(jacobian_rank_check(label, k) for k, label in enumerate(labels))
    assert fallbacks


@pytest.mark.parametrize(
    "js, word1",
    [([], [("y", 1, Fraction(1, 5))]), ([1], [("t", 0, (Fraction(5),))])],
    ids=["denominator", "torus-numerator"],
)
def test_full_rank_treats_a_residue_with_no_inverse_as_a_miss(js, word1, monkeypatch):
    """A denominator, or a torus value's numerator, divisible by p has no
    inverse mod p: the certificate misses and the exact rank decides."""
    import tnncompact.cells as cells

    J = ParabolicSubset.of(2, js)
    with pytest.raises(ValueError):
        cells._tangent_rank(J, word1, [], 5)
    monkeypatch.setattr(cells, "_P", 5)
    assert cells._full_rank(J, word1, [], 1)


def _random_nonempty_label(n, rng):
    gens = list(range(1, n))
    js = rng.choice([c for r in range(n) for c in combinations(gens, r)])
    J = ParabolicSubset.of(n, js)
    reps = J.min_coset_reps()
    wj = [w for w in all_weyl(n) if J.contains_w(w)]
    while True:
        v, w = rng.choice(reps), rng.choice(reps)
        vp, wp = rng.choice(reps), rng.choice(reps)
        if bruhat_leq(v, w) and bruhat_leq(vp, wp):
            return CellLabel(J, v, w, vp, wp, rng.choice(wj), rng.choice(wj))


@pytest.mark.slow
def test_jacobian_n4_random_subset():
    rng = random.Random(12)
    for _ in range(25):
        label = _random_nonempty_label(4, rng)
        assert jacobian_rank_check(label, 13), label


def _tangent_and_dual_ranks(label, seed):
    """The tangent rank and the Dual oracle's rank at the one chart point
    that jacobian_rank_check(label, seed) ranks: the coordinates of
    sample_cell(label, seed), which the oracle draws again from
    Random(seed)."""
    words = _chart_words(_chart(label, sample_cell(label, seed)[0], Fraction(1)))
    return _tangent_rank(label.J, *words), dual_jacobian_rank(label, random.Random(seed))


def test_tangent_rank_is_the_dual_rank_on_every_cell_n_le_3():
    for n in (2, 3):
        for k, (label, d) in enumerate(enumerate_cells(n)):
            assert _tangent_and_dual_ranks(label, k) == (d, d), label


@pytest.mark.slow
def test_tangent_rank_is_the_dual_rank_on_seeded_cells_n4():
    rng = random.Random(404)
    for k in range(300):
        label = _random_nonempty_label(4, rng)
        tangent, dual = _tangent_and_dual_ranks(label, k)
        assert tangent == dual == dimension_of(label), label


def _n5_labels():
    rng = random.Random(505)
    return [_random_nonempty_label(5, rng) for _ in range(20)]


def test_jacobian_n5_random_labels():
    for k, label in enumerate(_n5_labels()):
        assert jacobian_rank_check(label, k), label


@pytest.mark.slow
def test_tangent_rank_is_the_dual_rank_n5():
    for k, label in enumerate(_n5_labels()[:5]):
        tangent, dual = _tangent_and_dual_ranks(label, k)
        assert tangent == dual == dimension_of(label), label


_A, _B, _C, _D = Fraction(2, 3), Fraction(5, 7), Fraction(3), Fraction(1, 4)


@pytest.mark.parametrize(
    "n, js, word1, word2, rank",
    [
        # two adjacent x_1 steps in the open stratum are one step
        (3, [1, 2], [("x", 1, _A), ("x", 1, _B)], [], 1),
        (3, [], [("y", 2, _A), ("y", 2, _B)], [("y", 1, _C)], 2),
        # the two tori meet in the one point g1·g2 of the open stratum
        (2, [1], [("t", 0, (_A,))], [("t", 0, (_B,))], 1),
        (3, [1, 2], [("x", 1, _A)], [("y", 1, _B)], 1),
        # steps inside the stabilizer, B⁺ on side 1 and B⁻ on side 2
        (3, [], [("x", 2, _A)], [("x", 1, _B)], 0),
        # the Levi GL_2 of J = {1} modulo its centre has dimension 3
        (3, [1], [("y", 1, _A), ("t", 0, (_B, 1)), ("x", 1, _C)], [("y", 1, _D)], 3),
        (3, [], [("x", 2, _A), ("x", 2, _B), ("s", 2, None)], [], 1),
        (
            4,
            [2],
            [("y", 1, _A), ("s", 3, None), ("y", 2, _B), ("y", 2, _C), ("t", 0, (1, _D, 1))],
            [("x", 2, _A), ("y", 3, _B), ("y", 3, _C)],
            4,
        ),
    ],
)
def test_tangent_rank_of_rank_deficient_words(n, js, word1, word2, rank):
    """Words the sampler never builds, with fewer independent directions
    than variables: both routes see the same lower rank."""
    J = ParabolicSubset.of(n, js)
    assert _tangent_rank(J, word1, word2) == dual_rank(J, *dual_words(J, word1, word2)) == rank


def test_quotient_width_is_the_stratum_dimension():
    """The stabilizer is not too small: the quotient has dim Z_J
    coordinates, n² − (n − |J|), for every stratum at n ≤ 6."""
    for n in range(2, 7):
        for J in all_parabolic_subsets(n):
            below, within, links = _quotient_layout(J)
            width = 2 * len(below) + len(within) + len(links)
            assert width == n * n - (n - len(J.J)) == dimension_of(top_label(J))


@pytest.mark.slow
def test_roundtrip_n4_random_labels():
    rng = random.Random(12345)
    for k in range(12):
        label = _random_nonempty_label(4, rng)
        _, z = sample_cell(label, 1000 + k)
        assert classify(z) == label


@pytest.mark.parametrize("n", [3, 4])
def test_classify_eliminates_no_matrix_twice(n, monkeypatch):
    """Each matrix classify inverts goes through one fraction-free
    elimination (linalg._adjugate) at most once, on sampled points and on
    torus limits of caller-built matrices, whose g1 the flag cell and a γ
    position both invert: the caller's g1 is eliminated on the first
    classify, and never again."""
    import tnncompact.linalg as la
    from tnncompact.matgroup import GroupMatrix
    from tnncompact.strata import torus_limit

    rng = random.Random(60 + n)
    cases = [
        (label, sample_cell(label, k)[1])
        for k, label in enumerate(_random_nonempty_label(n, rng) for _ in range(8))
    ]
    for _ in range(8):
        g1, g2 = (GroupMatrix(sample_G_gt0(n, rng).m) for _ in range(2))
        c = [rng.choice([0, 1, 2]) for _ in range(n - 1)]
        cases.append((None, torus_limit(g1, c, g2)))

    eliminated = []
    adjugate = la._adjugate

    def recording(a):
        eliminated.append(tuple(map(tuple, a)))
        return adjugate(a)

    monkeypatch.setattr(la, "_adjugate", recording)
    for label, z in cases:
        eliminated.clear()
        got = classify(z)
        assert got == label if label else got.is_nonempty()
        assert len(set(eliminated)) == len(eliminated)
        if label is None:
            assert eliminated.count(z.g1.M) == 1
            eliminated.clear()
            classify(z)
            assert z.g1.M not in eliminated


def test_classify_reads_positions_off_its_eliminations(monkeypatch):
    """Each classify makes 6 associated_borel calls, 4 Bruhat cells (one
    rank each) and at most 9 Bruhat eliminations: a flag cell's w is the
    position associated_borel returns, and the flag cell of g1 and the
    first γ position eliminate the same kept g1⁻¹.  On sampled n = 3, 4
    points, a torus limit and its positive retraction."""
    import tnncompact.cells as cells
    import tnncompact.linalg as la
    import tnncompact.matgroup as matgroup

    rng = random.Random(70)
    cases = [
        (label, sample_cell(label, k)[1])
        for n in (3, 4)
        for k, label in enumerate(_random_nonempty_label(n, rng) for _ in range(6))
    ]
    g1, g2, h1, h2 = (sample_G_gt0(4, rng) for _ in range(4))
    z = torus_limit(g1, (1, 0, 2), g2)
    cases += [(None, z), (None, positive_retraction(h1, h2, z))]

    calls = Counter()
    for mod, name in (
        (cells, "associated_borel"),
        (cells, "bruhat_cell"),
        (la, "rank"),
        (matgroup, "_bruhat_left"),
    ):
        fn = getattr(mod, name)
        monkeypatch.setattr(
            mod, name, lambda *a, name=name, fn=fn, **k: calls.update([name]) or fn(*a, **k)
        )
    for label, z in cases:
        calls.clear()
        got = classify(z)
        assert got == label if label else got.is_nonempty()
        assert calls["associated_borel"] == 6
        assert calls["bruhat_cell"] == calls["rank"] == 4
        assert calls["_bruhat_left"] <= 9


def test_a_kept_bruhat_elimination_is_a_fresh_one(monkeypatch):
    """associated_borel keeps the elimination (b, w) of g⁻¹·h on that
    matrix (GroupMatrix._bruhat), and what is kept equals a fresh
    _bruhat_left of its M: on caller-built matrices, on Weyl lifts, which
    are shared and keep theirs across calls and strata, and on every
    matrix whose kept elimination classify reads, hits included."""
    from tnncompact.matgroup import (
        GroupMatrix,
        _bruhat_left,
        associated_borel,
        identity_g,
        wdot,
    )

    kept = []
    bruhat = GroupMatrix.__dict__["_bruhat"]
    monkeypatch.setattr(
        GroupMatrix, "_bruhat", property(lambda g: kept.append(g) or bruhat.__get__(g, GroupMatrix))
    )

    def check(g):
        assert "_bruhat" in g.__dict__
        b, w = g.__dict__["_bruhat"]
        fresh_b, fresh_w = _bruhat_left(g.M)
        assert w == fresh_w and b == fresh_b and b.M == fresh_b.M

    rng = random.Random(75)
    for n in (3, 4):
        e = identity_g(n)
        strata_n = all_parabolic_subsets(n)
        caller = [GroupMatrix(sample_G_gt0(n, rng).m) for _ in range(3)]
        for J in strata_n:
            for h in caller:
                associated_borel(J, e, h)
            for x in all_weyl(n):
                _, u = associated_borel(J, e, wdot(x))
                assert u == J.min_rep(x.inverse())
        for g in caller + [wdot(x) for x in all_weyl(n)]:
            check(g)
        kept.clear()
        for k in range(4):
            label = _random_nonempty_label(n, rng)
            assert classify(sample_cell(label, k)[1]) == label
        z = torus_limit(GroupMatrix(sample_G_gt0(n, rng).m), [0] * (n - 2) + [1], e)
        assert classify(z) == classify(z)
        assert classify(base_point(ParabolicSubset.of(n, [1]))).is_nonempty()
        assert kept
        for g in kept:
            check(g)


def test_sample_and_classify_leave_no_cyclic_garbage():
    """No kept value links back to the object that keeps it: after a
    warm-up that fills the shared tables, sampling and classifying 20
    labels at each of n = 3 and n = 4 leaves nothing for the cyclic
    collector."""
    rng = random.Random(76)
    labels = [_random_nonempty_label(n, rng) for n in (3, 4) for _ in range(20)]
    for k, label in enumerate(labels):
        classify(sample_cell(label, k)[1])
    gc.collect()
    gc.disable()
    try:
        for k, label in enumerate(labels):
            assert classify(sample_cell(label, k + len(labels))[1]) == label
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [3, 4])
def test_sample_and_classify_multiply_no_signed_permutation(n, monkeypatch):
    """Weyl lifts, the identity and the words that are lifts multiply by
    index maps on the sample→classify path: no signed permutation reaches
    the product kernel (linalg._product), which the other products
    go through."""
    import tnncompact.linalg as la

    calls = []
    guarded = refusing_signed_permutations(la._product)
    monkeypatch.setattr(la, "_product", lambda a, b: calls.append(a) or guarded(a, b))
    rng = random.Random(65 + n)
    for k in range(20):
        label = _random_nonempty_label(n, rng)
        assert classify(sample_cell(label, k)[1]) == label
    assert calls


@pytest.mark.slow
def test_limits_and_membership_n4():
    import tnncompact.linalg as la
    from tnncompact.matgroup import GroupMatrix

    rng = random.Random(7)
    one = GroupMatrix(identity(4))
    for c in [(1, 0, 1), (0, 1, 0), (2, 1, 3), (0, 0, 1)]:
        J = ParabolicSubset.of(4, [i + 1 for i, x in enumerate(c) if x == 0])
        assert torus_limit(one, c, one) == base_point(J)
    g1, g2 = sample_G_gt0(4, rng), sample_G_gt0(4, rng)
    z = torus_limit(g1, (1, 1, 1), g2)
    assert membership_Zgt0(z)


def test_no_positive_point_classifies_empty():
    rng = random.Random(10)
    labels = enumerate_cells(3)
    for k in range(15):
        label, _ = rng.choice(labels)
        _, z = sample_cell(label, 100 + k)
        g1, g2 = sample_G_gt0(3, rng), sample_G_gt0(3, rng)
        got = classify(act(g1, g2.inverse(), z))
        assert got.is_nonempty()


@pytest.mark.parametrize("n", [3, 4])
def test_dual_chart_is_the_sampled_chart(n):
    """The Jacobian differentiates the sampler's own chart: at the sampled
    coordinates, the values of the Dual chart and of its limit images are
    the sampled point's chart and fundamental tuple, the degree-k image
    scaled by (d1·d2)^k for the point's denominators d1, d2."""
    from tnncompact.strata import _limit_images, fundamental_tuple

    def values(m):
        return tuple(tuple(x.val for x in row) for row in m)

    rng = random.Random(80 + n)
    for k in range(10):
        label = _random_nonempty_label(n, rng)
        coords, z = sample_cell(label, k)
        assert len(coords) == dimension_of(label)
        assert chart_point(label, coords) == z
        g1, g2 = dual_chart(label, coords)
        g, gp, l = chart_elements(label, coords)
        assert values(g1) == (g @ l).m
        assert values(g2) == gp.T.m
        scale = denominator(z.g1) * denominator(z.g2)
        images = _limit_images(label.J, g1, g2)
        assert [
            tuple(tuple(scale**k * x for x in row) for row in values(m))
            for k, m in enumerate(images, 1)
        ] == fundamental_tuple(z)
