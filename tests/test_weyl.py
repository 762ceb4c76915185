from functools import reduce
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st
from oracles import (
    blocks,
    lex_min_word_by_left_descents,
    lex_min_word_by_swaps,
    positive_subexpression_stations,
)

from tnncompact import weyl
from tnncompact.serialize import SchemaError, weyl_from_json
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
    assert w.length == sum(w(i) > w(j) for i, j in combinations(range(1, w.n + 1), 2))
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


def test_positive_subexpression_rank_mismatch():
    """A word and a v of different ranks are refused, as bruhat_leq refuses
    them, whether v is longer or shorter than the word's rank."""
    word = ReducedWord(2, (1,))
    for v in (WeylElement((2, 1, 3)), WeylElement((1,))):
        with pytest.raises(WeylError, match="rank mismatch"):
            positive_subexpression(word, v)


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
            for blk in blocks(J):
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


def _stations(ps):
    """The stations v_(0), …, v_(m) of ps, rebuilt from its free steps: v_(j)
    is v_(j−1) on a free step j and v_(j−1)·s_{i_j} on the others."""
    stations = [identity_w(ps.word.n)]
    for j, i in enumerate(ps.word.letters, start=1):
        stations.append(stations[-1] if j in ps.jcirc else stations[-1].right_s(i))
    return tuple(stations)


def test_positive_subexpression_spec_cases():
    s1 = simple_reflection(3, 1)
    word = ReducedWord(3, (1, 2, 1))
    ps = positive_subexpression(word, s1)
    assert (ps.word, ps.v) == (word, s1)
    assert [s.perm for s in _stations(ps)] == [
        (1, 2, 3),
        (1, 2, 3),
        (1, 2, 3),
        (2, 1, 3),
    ]
    assert sorted(ps.jcirc) == [1, 2]

    word1 = ReducedWord(2, (1,))
    ps_e = positive_subexpression(word1, identity_w(2))
    assert sorted(ps_e.jcirc) == [1]
    ps_s = positive_subexpression(word1, simple_reflection(2, 1))
    assert sorted(ps_s.jcirc) == []
    assert [s.perm for s in _stations(ps_s)] == [(1, 2), (2, 1)]


def test_positive_subexpression_rejects_incomparable():
    word = ReducedWord(3, (1,))
    with pytest.raises(WeylError):
        positive_subexpression(word, simple_reflection(3, 2))


def test_positive_subexpression_constructor_checks_its_jcirc():
    """The public constructor takes only the word's positive subexpression
    for v: a foreign jcirc would make mr_evaluate drop a coordinate."""
    word = ReducedWord(3, (1, 2))
    v = WeylElement((1, 2, 3))
    kept = positive_subexpression(word, v)
    assert weyl.PositiveSubexpression(word, v, frozenset({1, 2})) == kept
    for jcirc in (frozenset({5}), frozenset({1}), frozenset()):
        with pytest.raises(WeylError):
            weyl.PositiveSubexpression(word, v, jcirc)
    with pytest.raises(WeylError):  # rank mismatch
        weyl.PositiveSubexpression(word, WeylElement((1, 2)), frozenset({1, 2}))
    with pytest.raises(WeylError):  # v is not below the word's product
        weyl.PositiveSubexpression(ReducedWord(3, (1,)), simple_reflection(3, 2), frozenset())


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
    greedy computation finds it; for every other v the greedy raises."""
    for w in all_weyl(n):
        if w.length > 6:
            continue
        for letters in all_reduced_words(w):
            word = ReducedWord(n, letters)
            for v in all_weyl(n):
                if not bruhat_leq(v, w):
                    with pytest.raises(WeylError):
                        positive_subexpression(word, v)
                    continue
                ps = positive_subexpression(word, v)
                want = _stations(ps)
                assert ps.v == v and want[-1] == v
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
                        assert stations == want
                assert matches == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jcirc_is_where_the_oracle_stations_stay(n):
    """For every w at n ≤ 4, every reduced word of w and every v, the
    one-permutation greedy keeps (word, v) and its jcirc is the set of steps
    where the station-list oracle stays put; it raises exactly where the
    oracle does not reach the identity."""
    for w in all_weyl(n):
        for letters in all_reduced_words(w):
            word = ReducedWord(n, letters)
            for v in all_weyl(n):
                stations = positive_subexpression_stations(word, v)
                if stations is None:
                    assert not bruhat_leq(v, w)
                    with pytest.raises(WeylError):
                        positive_subexpression(word, v)
                    continue
                ps = positive_subexpression(word, v)
                assert (ps.word, ps.v) == (word, v)
                assert ps.jcirc == {
                    j for j in range(1, len(letters) + 1) if stations[j - 1] == stations[j]
                }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_pair_count_vs_bruteforce(n):
    ws = all_weyl(n)
    brute = sum(
        1 for v in ws for w in ws if brute_bruhat_leq(v, w)
    )
    fast = sum(1 for v in ws for w in ws if bruhat_leq(v, w))
    assert fast == brute


@given(st.integers(2, 5).flatmap(perms))
def test_lex_min_word_is_reduced_and_minimal(w):
    word = lex_min_reduced_word(w)
    assert reduce(WeylElement.right_s, word.letters, identity_w(w.n)) == w
    assert len(word) == w.length
    assert word.letters == min(all_reduced_words(w)) if w.n <= 4 else True


@pytest.mark.parametrize("n", range(1, 7))
def test_lex_min_word_matches_left_descent_oracle(n):
    for w in all_weyl(n):
        word = lex_min_reduced_word(w)
        assert word.letters == lex_min_word_by_left_descents(w), w
        assert ReducedWord(n, word.letters) == word


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_built_elements_equal_public_ones(n):
    """Elements the library builds skip the permutation check; each equals,
    and hashes like, the element built publicly from its one-line
    notation."""

    def same(got, perm):
        want = WeylElement(tuple(perm))
        assert got == want and hash(got) == hash(want) and len({got, want}) == 1
        assert got.perm == want.perm and type(got.perm) is tuple

    ws = all_weyl(n)
    assert sorted(w.perm for w in ws) == sorted(permutations(range(1, n + 1)))
    same(identity_w(n), range(1, n + 1))
    same(longest_w(n), range(n, 0, -1))
    for i in range(1, n):
        same(simple_reflection(n, i), [{i: i + 1, i + 1: i}.get(k, k) for k in range(1, n + 1)])
    for J in all_parabolic_subsets(n):
        levi = [x for x in ws if J.contains_w(x)]
        same(J.longest_element(), max(levi, key=lambda x: x.length).perm)
        for w in ws:
            same(J.min_rep(w), min((w * x for x in levi), key=lambda u: u.length).perm)
    for v in ws:
        same(v.inverse(), [v.perm.index(i) + 1 for i in range(1, n + 1)])
        for i in range(1, n):
            p = list(v.perm)
            p[i - 1], p[i] = p[i], p[i - 1]
            same(v.right_s(i), p)
        for w in ws:
            same(v * w, [v(w(i)) for i in range(1, n + 1)])


def test_public_construction_still_checks():
    with pytest.raises(WeylError):
        WeylElement((1, 1, 3))
    with pytest.raises(SchemaError):
        weyl_from_json([2, 2])
    with pytest.raises(WeylError):
        identity_w(2) * identity_w(3)


@pytest.mark.parametrize(
    "perm", [(2.0, 1.0, 3.0), (True, 2), (1, True), (1, 2.0), (1.5,), ("1",), [2, 1, 3]]
)
def test_weyl_element_refuses_non_integer_entries(perm):
    """A float perm compares and hashes like the int one, so accepting it
    would let one caller leave a float element where ints are expected; a
    list is no key for the kept values."""
    with pytest.raises(WeylError):
        WeylElement(perm)


@pytest.mark.parametrize(
    "n,js",
    [(3, [1.0]), (3, [True]), (3, [1, 2.0]), (3.0, []), (True, []), (3, ["1"]), ("3", [1])],
)
def test_parabolic_subset_refuses_non_integer_entries(n, js):
    with pytest.raises(WeylError):
        ParabolicSubset.of(n, js)


def _inversion_count(w):
    return sum(w(i) > w(j) for i, j in combinations(range(1, w.n + 1), 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_one_shared_element_per_permutation_and_its_kept_values(n):
    """Every permutation at n ≤ 5: the library builds one object for it,
    whatever the route, and the values kept on it are those of brute
    force: an inversion count, w⁻¹·w = e, and the adjacent-swap word."""
    ws = all_weyl(n)
    e = identity_w(n)
    assert e is identity_w(n) and longest_w(n) is longest_w(n)
    for w, again in zip(ws, all_weyl(n)):
        assert w is again and (w * e) is w and (e * w) is w
        assert w.length == _inversion_count(w)
        inv = w.inverse()
        assert inv * w is e and w * inv is e
        assert inv.inverse() is w and w.inverse() is inv
        for i in range(1, n):
            assert w.right_s(i).right_s(i) is w
        word = lex_min_reduced_word(w)
        assert word.letters == lex_min_word_by_swaps(w), w
        assert lex_min_reduced_word(w) is word
        public = WeylElement(w.perm)
        assert public == w and hash(public) == hash(w) and public is not w
        assert public.length == w.length and public.inverse() is inv
        assert lex_min_reduced_word(public) == word
    for J in all_parabolic_subsets(n):
        assert J.longest_element() is J.longest_element()
        assert J.max_coset_rep() is J.max_coset_rep()
        assert J.star() is J.star() and J.star().star() == J
        shared = {id(w) for w in ws}
        assert all(id(x) in shared for x in J.min_coset_reps())
        assert all(id(J.min_rep(w)) in shared for w in ws)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kept_positive_subexpression_is_keyed_by_word_and_v(n):
    """For every reduced word of every w at n ≤ 4 and every v ≤ w, the kept
    subexpression equals a fresh computation after all of them have been
    kept.  Two words of one w give one v different free steps, so a key
    without the word (or without v) would return another pair's value."""
    differ = 0
    for w in all_weyl(n):
        below = [v for v in all_weyl(n) if bruhat_leq(v, w)]
        words = [ReducedWord(n, letters) for letters in all_reduced_words(w)]
        words.append(lex_min_reduced_word(w))
        kept = {
            (k, v): positive_subexpression(word, v)
            for k, word in enumerate(words)
            for v in below
        }
        for (k, v), psub in kept.items():
            fresh = weyl._positive_subexpression(words[k], v)
            assert positive_subexpression(words[k], v) is psub
            assert psub == fresh and psub.v == v and psub.word == words[k]
        for v in below:
            differ += len({kept[k, v].jcirc for k in range(len(words))}) > 1
    assert differ > 0 or n == 2


def test_blocks_are_fresh_lists_over_kept_blocks():
    J = ParabolicSubset.of(4, [1, 3])
    ones, zeros = blocks(J), J.blocks0()
    ones[0].append(9)
    ones.append([7])
    zeros[1].clear()
    assert blocks(J) == [[1, 2], [3, 4]] and J.blocks0() == [[0, 1], [2, 3]]
    assert J.blocks0() is not J.blocks0()
    assert J.contains_w(WeylElement((2, 1, 4, 3)))
    assert J.longest_element().perm == (2, 1, 4, 3)


def test_reduced_word_rejects_nonreduced():
    with pytest.raises(WeylError):
        ReducedWord(3, (1, 1))
