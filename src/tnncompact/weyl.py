"""Symmetric-group model of the type A Weyl group.

Elements are permutations of {1..n} in one-line notation; s_i swaps i and
i+1.  Composition is function composition, (v*w)(i) = v(w(i)), so right
multiplication by s_i swaps the entries in positions i, i+1 and left
multiplication swaps the values i, i+1.  Bruhat order is decided by the
tableau criterion; reduced-word machinery (positive subexpressions,
lexicographically least words) lives here too.

The public ``WeylElement`` constructor checks that its tuple is a
permutation of ints (no floats, no bools); JSON readers and callers go
through it.  Every element this module builds from a size or from other
elements (products, inverses, right multiplication by s_i, coset
representatives, the named elements) is a permutation by construction and
goes through ``_trusted_w``, which checks nothing and returns the one
shared element of its permutation.  An element's cached properties are
its length, its inverse (linked back) and its lex-min reduced word, which
keeps its positive subexpression per v; a ``ParabolicSubset`` keeps its
blocks, longest element and J*.  Every kept value is immutable.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, permutations
from operator import le


class WeylError(Exception):
    pass


@dataclass(frozen=True)
class WeylElement:
    """Permutation of {1..n} in one-line notation."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        ints = type(self.perm) is tuple and all(type(x) is int for x in self.perm)
        if not ints or sorted(self.perm) != list(range(1, n + 1)):
            raise WeylError(f"not a permutation of 1..{n}: {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    @cached_property
    def length(self) -> int:
        return _inversions(self.perm)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.n != other.n:
            raise WeylError("rank mismatch")
        p = self.perm
        return _trusted_w(tuple(p[j - 1] for j in other.perm))

    def inverse(self) -> "WeylElement":
        return self._inv

    @cached_property
    def _inv(self) -> "WeylElement":
        """The positions 1..n by value; linked back, as shared elements are never freed."""
        inv = _trusted_w(tuple(sorted(range(1, self.n + 1), key=self)))
        inv.__dict__["_inv"] = _trusted_w(self.perm)
        return inv

    @cached_property
    def _word(self) -> "ReducedWord":
        return _lex_min_word(self)

    def right_s(self, i: int) -> "WeylElement":
        """self * s_i (swaps positions i, i+1)."""
        p = list(self.perm)
        p[i - 1], p[i] = p[i], p[i - 1]
        return _trusted_w(tuple(p))

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(self.n))

    def left_descents(self) -> list[int]:
        inv = self.inverse().perm
        return [i for i in range(1, self.n) if inv[i - 1] > inv[i]]

    def __repr__(self) -> str:
        return f"W{self.perm}"


def _inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


@cache
def _trusted_w(perm: tuple[int, ...]) -> WeylElement:
    """The shared WeylElement of a tuple that is a permutation by
    construction: skips the ``__post_init__`` check, which stays on every
    public construction."""
    w = object.__new__(WeylElement)
    w.__dict__["perm"] = perm
    return w


def identity_w(n: int) -> WeylElement:
    return _trusted_w(tuple(range(1, n + 1)))


def simple_reflection(n: int, i: int) -> WeylElement:
    if not 1 <= i <= n - 1:
        raise WeylError(f"generator index {i} out of range for n={n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return _trusted_w(tuple(p))


def longest_w(n: int) -> WeylElement:
    return _trusted_w(tuple(range(n, 0, -1)))


def all_weyl(n: int) -> list[WeylElement]:
    return [_trusted_w(p) for p in permutations(range(1, n + 1))]


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the tableau criterion (Björner and Brenti,
    *Combinatorics of Coxeter Groups*, Thm 2.6.3): v ≤ w iff, for every
    i < n, the sorted values v(1..i) are entrywise ≤ the sorted w(1..i)."""
    if v.n != w.n:
        raise WeylError("rank mismatch")
    sv, sw = [], []
    for a, b in zip(v.perm[:-1], w.perm[:-1]):
        insort(sv, a)
        insort(sw, b)
        if not all(map(le, sv, sw)):
            return False
    return True


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word s_{i_1}···s_{i_m}; reducedness is checked on build."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        w = identity_w(self.n)
        for i in self.letters:
            if not 1 <= i <= self.n - 1:
                raise WeylError(f"letter {i} out of range for n={self.n}")
            w = w.right_s(i)
        if w.length != len(self.letters):
            raise WeylError(f"word {self.letters} is not reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def _psubs(self) -> dict[tuple[int, ...], "PositiveSubexpression"]:
        return {}


def lex_min_reduced_word(w: WeylElement) -> ReducedWord:
    """Lexicographically least reduced word (deterministic chart choice),
    kept on w (``WeylElement._word``)."""
    return w._word


def _lex_min_word(w: WeylElement) -> ReducedWord:
    """The least letter is the least left descent i of w, i.e. the least
    descent of w⁻¹, and the rest is the kept word of s_i·w, one shorter.
    Each letter removes one inversion, so the word is reduced by
    construction and is not re-checked."""
    q = w.inverse().perm
    i = next((i for i in range(1, w.n) if q[i - 1] > q[i]), 0)
    letters = ()
    if i:
        letters = (i, *lex_min_reduced_word(simple_reflection(w.n, i) * w).letters)
    word = object.__new__(ReducedWord)
    word.__dict__.update(n=w.n, letters=letters)
    return word


def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    if w.is_identity():
        return [()]
    words = []
    for i in w.left_descents():
        rest = all_reduced_words(simple_reflection(w.n, i) * w)
        words.extend((i,) + r for r in rest)
    return words


@dataclass(frozen=True)
class PositiveSubexpression:
    """The positive distinguished subexpression of a reduced word for v
    (Marsh and Rietsch, Represent. Theory 8, 2004), kept as what its chart
    reads: the word, v, and jcirc, the word positions 1..m where the
    station stays put, which are the chart's free steps.  The public
    constructor checks that jcirc is the word's one for v (and that the
    ranks agree); ``positive_subexpression`` builds the kept one unchecked."""

    word: ReducedWord
    v: WeylElement
    jcirc: frozenset[int]

    def __post_init__(self):
        if positive_subexpression(self.word, self.v).jcirc != self.jcirc:
            raise WeylError(f"{sorted(self.jcirc)} is not the positive subexpression for {self.v}")


def positive_subexpression(word: ReducedWord, v: WeylElement) -> PositiveSubexpression:
    """The positive subexpression of word for v, kept on the word per v
    (``ReducedWord._psubs``).  Raises WeylError when their ranks differ."""
    if word.n != v.n:
        raise WeylError("rank mismatch")
    key = v.perm
    psub = word._psubs.get(key)
    if psub is None:
        psub = word._psubs[key] = _positive_subexpression(word, v)
    return psub


def _positive_subexpression(word: ReducedWord, v: WeylElement) -> PositiveSubexpression:
    """Right-to-left greedy computation on one permutation, the running
    station u, starting at v: step down by s_{i_j} exactly when that
    shortens u, i.e. when u has a right descent at i_j, u(i_j) > u(i_j + 1);
    otherwise j is free.  The greedy reaches the identity exactly when
    v ≤ w, the product of the word, so it decides that too: raises
    WeylError when it does not.  The result is set field by field, as the
    dataclass's own ``__init__`` does, but without ``__post_init__``, whose
    check would run this greedy again."""
    u = list(v.perm)
    jcirc = []
    for j in range(len(word), 0, -1):
        i = word.letters[j - 1]
        if u[i - 1] > u[i]:
            u[i - 1], u[i] = u[i], u[i - 1]
        else:
            jcirc.append(j)
    if u != sorted(u):
        raise WeylError(f"{v} is not Bruhat-below the product of {word.letters}")
    psub = object.__new__(PositiveSubexpression)
    for name, value in zip(("word", "v", "jcirc"), (word, v, frozenset(jcirc))):
        object.__setattr__(psub, name, value)
    return psub


@dataclass(frozen=True)
class ParabolicSubset:
    """A subset J of the generator indices {1..n-1}."""

    n: int
    J: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if type(self.n) is not int or not all(type(j) is int and 0 < j < self.n for j in self.J):
            raise WeylError(f"J={set(self.J)} is not a set of ints in 1..n-1 for n={self.n!r}")

    @staticmethod
    def of(n: int, js) -> "ParabolicSubset":
        return ParabolicSubset(n, frozenset(js))

    @cached_property
    def _blocks(self) -> tuple[tuple[int, ...], ...]:
        """J-blocks: consecutive runs of {1..n} glued along i ∈ J (1-based)."""
        blocks = [[1]]
        for i in range(1, self.n):
            if i in self.J:
                blocks[-1].append(i + 1)
            else:
                blocks.append([i + 1])
        return tuple(map(tuple, blocks))

    def blocks0(self) -> list[list[int]]:
        """Same blocks with 0-based matrix indices."""
        return [[i - 1 for i in blk] for blk in self._blocks]

    def boundaries(self) -> list[int]:
        """Proper cumulative block dimensions, i.e. {1..n-1} minus J."""
        return [d for d in range(1, self.n) if d not in self.J]

    def star(self) -> "ParabolicSubset":
        return self._star

    @cached_property
    def _star(self) -> "ParabolicSubset":
        return ParabolicSubset(self.n, frozenset(self.n - j for j in self.J))

    def longest_element(self) -> WeylElement:
        return self._longest

    @cached_property
    def _longest(self) -> WeylElement:
        p = list(range(1, self.n + 1))
        for blk in self._blocks:
            lo, hi = blk[0], blk[-1]
            p[lo - 1 : hi] = range(hi, lo - 1, -1)
        return _trusted_w(tuple(p))

    def contains_w(self, w: WeylElement) -> bool:
        """w ∈ W_J iff w permutes within the J-blocks."""
        for blk in self._blocks:
            lo, hi = blk[0], blk[-1]
            if any(not lo <= w(i) <= hi for i in blk):
                return False
        return True

    def min_coset_reps(self) -> list[WeylElement]:
        """W^J = {w : w(j) < w(j+1) for all j in J}, sorted by (length, perm)."""
        reps = [
            w for w in all_weyl(self.n) if all(w(j) < w(j + 1) for j in self.J)
        ]
        return sorted(reps, key=lambda w: (w.length, w.perm))

    def is_min_rep(self, w: WeylElement) -> bool:
        return all(w(j) < w(j + 1) for j in self.J)

    def min_rep(self, w: WeylElement) -> WeylElement:
        """The shortest element of the coset w·W_J: w's entries sorted within
        each J-block of positions."""
        p = list(w.perm)
        for blk in self._blocks:
            lo, hi = blk[0], blk[-1]
            p[lo - 1 : hi] = sorted(p[lo - 1 : hi])
        return _trusted_w(tuple(p))

    def max_coset_rep(self) -> WeylElement:
        """The longest element of W^J, i.e. w_0 · w^J_0."""
        return longest_w(self.n) * self.longest_element()

    def __repr__(self) -> str:
        return f"J(n={self.n}, {sorted(self.J)})"


def all_parabolic_subsets(n: int) -> list[ParabolicSubset]:
    """Every J ⊆ {1..n-1}, by size and then lexicographically."""
    gens = range(1, n)
    return [ParabolicSubset.of(n, js) for r in range(n) for js in combinations(gens, r)]
