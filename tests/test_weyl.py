import pytest
from hypothesis import given, strategies as st

from tnncompact.weyl import (
    ParabolicSubset,
    ReducedWord,
    WeylElement,
    WeylError,
    all_parabolic_subsets,
    all_reduced_words,
    all_weyl,
    bruhat_leq,
    identity_w,
    inversion_set,
    lex_min_reduced_word,
    longest_w,
    positive_subexpression,
    simple_reflection,
)


def perms(n):
    return st.permutations(list(range(1, n + 1))).map(
        lambda p: WeylElement(tuple(p))
    )


def brute_bruhat_leq(v, w):
    """Subword oracle: v <= w iff some subword of one reduced word of w
    multiplies to v."""
    word = lex_min_reduced_word(w).letters
    seen = {identity_w(w.n)}
    for i in word:
        seen |= {x.right_s(i) for x in seen}
    return v in seen


@given(st.integers(2, 5).flatmap(perms))
def test_length_is_inversion_count(w):
    assert w.length == len(inversion_set(w))
    assert w.length == w.inverse().length


@given(st.integers(2, 5).flatmap(perms))
def test_longest_element_reverses_length(w):
    w0 = longest_w(w.n)
    assert (w0 * w).length == w0.length - w.length


def test_identity_has_length_zero():
    assert identity_w(4).length == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_matches_subword_oracle(n):
    ws = all_weyl(n)
    for v in ws:
        for w in ws:
            assert bruhat_leq(v, w) == brute_bruhat_leq(v, w), (v, w)


def test_bruhat_examples():
    w0 = longest_w(3)
    e = identity_w(3)
    s1, s2 = simple_reflection(3, 1), simple_reflection(3, 2)
    assert bruhat_leq(e, w0)
    assert not bruhat_leq(w0, e)
    assert bruhat_leq(s1, s2 * s1)


def test_bruhat_rank_mismatch():
    with pytest.raises(WeylError):
        bruhat_leq(identity_w(2), identity_w(3))


@pytest.mark.parametrize(
    "n,js,expected",
    [
        (2, [], [(1, 2), (2, 1)]),
        (3, [1], [(1, 2, 3), (1, 3, 2), (2, 3, 1)]),
        (3, [1, 2], [(1, 2, 3)]),
    ],
)
def test_min_coset_reps(n, js, expected):
    J = ParabolicSubset.of(n, js)
    reps = J.min_coset_reps()
    assert sorted(w.perm for w in reps) == sorted(expected)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_coset_reps_size_and_identity(n):
    from itertools import combinations
    from math import factorial

    for r in range(n):
        for js in combinations(range(1, n), r):
            J = ParabolicSubset.of(n, js)
            reps = J.min_coset_reps()
            order_wj = 1
            for blk in J.blocks():
                order_wj *= factorial(len(blk))
            assert len(reps) == factorial(n) // order_wj
            assert identity_w(n) in reps
            # oracle: the filter definition via lengths
            for w in all_weyl(n):
                in_reps = all((w.right_s(j)).length > w.length for j in J.J)
                assert (w in reps) == in_reps


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_rep_is_shortest_in_its_coset(n):
    """Brute force: the shortest of the |W_J| elements w·x, x ∈ W_J."""
    for J in all_parabolic_subsets(n):
        wj = [x for x in all_weyl(n) if J.contains_w(x)]
        for w in all_weyl(n):
            shortest = min((w * x for x in wj), key=lambda u: u.length)
            assert J.min_rep(w) == shortest
            assert J.is_min_rep(shortest)


def test_all_parabolic_subsets_order():
    assert [sorted(J.J) for J in all_parabolic_subsets(3)] == [[], [1], [2], [1, 2]]
    assert len(all_parabolic_subsets(5)) == 16
    assert all_parabolic_subsets(1) == [ParabolicSubset.of(1, [])]


@pytest.mark.parametrize(
    "n,js,perm,length",
    [
        (3, [1, 2], (3, 2, 1), 3),
        (3, [1], (2, 1, 3), 1),
        (4, [1, 3], (2, 1, 4, 3), 2),
    ],
)
def test_longest_element_of_parabolic(n, js, perm, length):
    J = ParabolicSubset.of(n, js)
    w = J.longest_element()
    assert w.perm == perm and w.length == length
    assert (w * w).is_identity()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_longest_coset_rep_complements_length(n):
    from itertools import combinations

    w0 = longest_w(n)
    for r in range(n):
        for js in combinations(range(1, n), r):
            J = ParabolicSubset.of(n, js)
            maxrep = max(J.min_coset_reps(), key=lambda w: w.length)
            assert maxrep == J.max_coset_rep()
            assert J.longest_element().length + maxrep.length == w0.length


@pytest.mark.parametrize(
    "n,js,expected", [(3, [1], {2}), (3, [], set()), (3, [1, 2], {1, 2}), (4, [1], {3})]
)
def test_star(n, js, expected):
    J = ParabolicSubset.of(n, js)
    assert set(J.star().J) == expected
    assert J.star().star() == J


def test_positive_subexpression_spec_cases():
    s1 = simple_reflection(3, 1)
    word = ReducedWord(3, (1, 2, 1))
    ps = positive_subexpression(word, s1)
    assert [s.perm for s in ps.stations] == [
        (1, 2, 3),
        (1, 2, 3),
        (1, 2, 3),
        (2, 1, 3),
    ]
    assert sorted(ps.jcirc) == [1, 2] and sorted(ps.jplus) == [3]

    word1 = ReducedWord(2, (1,))
    ps_e = positive_subexpression(word1, identity_w(2))
    assert sorted(ps_e.jcirc) == [1]
    ps_s = positive_subexpression(word1, simple_reflection(2, 1))
    assert sorted(ps_s.jplus) == [1]


def test_positive_subexpression_rejects_incomparable():
    word = ReducedWord(3, (1,))
    with pytest.raises(WeylError):
        positive_subexpression(word, simple_reflection(3, 2))


def _all_subexpressions(word, v):
    """Every station sequence hitting v: brute enumerator for uniqueness."""
    n = word.n
    found = []

    def rec(j, station, trace):
        if j == len(word.letters):
            if station == v:
                found.append(trace)
            return
        rec(j + 1, station, trace + (station,))
        rec(j + 1, station.right_s(word.letters[j]), trace + (station,))

    rec(0, identity_w(n), ())
    return found


@pytest.mark.parametrize("n", [2, 3, 4])
def test_positive_subexpression_unique_and_distinguished(n):
    """Exhaustive: for every w, every reduced word, every v <= w, exactly one
    subexpression satisfies the distinguished-positivity property, and the
    greedy computation finds it."""
    for w in all_weyl(n):
        if w.length > 6:
            continue
        for letters in all_reduced_words(w):
            word = ReducedWord(n, letters)
            for v in all_weyl(n):
                if not bruhat_leq(v, w):
                    continue
                ps = positive_subexpression(word, v)
                assert ps.stations[0].is_identity() and ps.stations[-1] == v
                matches = 0
                for trace in _all_subexpressions(word, v):
                    stations = trace + (v,)
                    ok = True
                    for j in range(1, len(letters) + 1):
                        up = stations[j - 1].right_s(letters[j - 1])
                        if stations[j] not in (stations[j - 1], up):
                            ok = False
                            break
                        if up.length < stations[j - 1].length:
                            ok = False
                            break
                    if ok:
                        matches += 1
                        assert stations == ps.stations
                assert matches == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_pair_count_vs_bruteforce(n):
    ws = all_weyl(n)
    brute = sum(
        1 for v in ws for w in ws if brute_bruhat_leq(v, w)
    )
    fast = sum(1 for v in ws for w in ws if bruhat_leq(v, w))
    assert fast == brute


def test_inversion_sets():
    assert inversion_set(identity_w(3)) == frozenset()
    assert inversion_set(simple_reflection(3, 1)) == frozenset({(1, 2)})
    assert inversion_set(longest_w(3)) == frozenset({(1, 2), (1, 3), (2, 3)})


@given(st.integers(2, 5).flatmap(perms))
def test_lex_min_word_is_reduced_and_minimal(w):
    word = lex_min_reduced_word(w)
    assert word.product() == w and len(word) == w.length
    assert word.letters == min(all_reduced_words(w)) if w.n <= 4 else True


def test_reduced_word_rejects_nonreduced():
    with pytest.raises(WeylError):
        ReducedWord(3, (1, 1))
