"""Symmetric-group model of the type A Weyl group.

Elements are permutations of {1..n} in one-line notation; s_i swaps i and
i+1.  Composition is function composition, (v*w)(i) = v(w(i)), so right
multiplication by s_i swaps the entries in positions i, i+1 and left
multiplication swaps the values i, i+1.  Bruhat order is decided by the
rank-matrix dominance criterion; reduced-word machinery (positive
subexpressions, lexicographically least words) lives here too.

Roots are encoded as ordered index pairs (i, j) with i < j standing for
e_i - e_j; there is no abstract root-system layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

Root = tuple[int, int]


class WeylError(Exception):
    pass


@dataclass(frozen=True)
class WeylElement:
    """Permutation of {1..n} in one-line notation."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise WeylError(f"not a permutation of 1..{n}: {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    @property
    def length(self) -> int:
        p = self.perm
        return sum(
            1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
        )

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.n != other.n:
            raise WeylError("rank mismatch")
        return WeylElement(tuple(self.perm[other.perm[i] - 1] for i in range(self.n)))

    def inverse(self) -> "WeylElement":
        inv = [0] * self.n
        for i, v in enumerate(self.perm):
            inv[v - 1] = i + 1
        return WeylElement(tuple(inv))

    def right_s(self, i: int) -> "WeylElement":
        """self * s_i (swaps positions i, i+1)."""
        p = list(self.perm)
        p[i - 1], p[i] = p[i], p[i - 1]
        return WeylElement(tuple(p))

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(self.n))

    def left_descents(self) -> list[int]:
        inv = self.inverse().perm
        return [i for i in range(1, self.n) if inv[i - 1] > inv[i]]

    def __repr__(self) -> str:
        return f"W{self.perm}"


def identity_w(n: int) -> WeylElement:
    return WeylElement(tuple(range(1, n + 1)))


def simple_reflection(n: int, i: int) -> WeylElement:
    if not 1 <= i <= n - 1:
        raise WeylError(f"generator index {i} out of range for n={n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return WeylElement(tuple(p))


def longest_w(n: int) -> WeylElement:
    return WeylElement(tuple(range(n, 0, -1)))


def all_weyl(n: int) -> list[WeylElement]:
    return [WeylElement(p) for p in permutations(range(1, n + 1))]


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the dominance criterion on rank matrices.

    v <= w iff #{a <= i : v(a) >= j} <= #{a <= i : w(a) >= j} for all i, j.
    """
    if v.n != w.n:
        raise WeylError("rank mismatch")
    n = v.n
    for i in range(1, n + 1):
        cv = cw = 0
        # scan j downward, maintaining counts of values >= j among first i
        countv = [0] * (n + 2)
        countw = [0] * (n + 2)
        for a in range(i):
            countv[v.perm[a]] += 1
            countw[w.perm[a]] += 1
        for j in range(n, 0, -1):
            cv += countv[j]
            cw += countw[j]
            if cv > cw:
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

    def product(self) -> WeylElement:
        w = identity_w(self.n)
        for i in self.letters:
            w = w.right_s(i)
        return w

    def __len__(self) -> int:
        return len(self.letters)


def lex_min_reduced_word(w: WeylElement) -> ReducedWord:
    """Lexicographically least reduced word (deterministic chart choice)."""
    letters = []
    cur = w
    while not cur.is_identity():
        i = min(cur.left_descents())
        letters.append(i)
        cur = simple_reflection(cur.n, i) * cur
    return ReducedWord(w.n, tuple(letters))


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
    """The distinguished subexpression of a reduced word multiplying to v.

    stations[j] is v_(j); jplus/jcirc partition word positions 1..m into the
    steps where the station moves up and where it stays.
    """

    word: ReducedWord
    stations: tuple[WeylElement, ...]
    jplus: frozenset[int]
    jcirc: frozenset[int]

    @property
    def v(self) -> WeylElement:
        return self.stations[-1]


def positive_subexpression(word: ReducedWord, v: WeylElement) -> PositiveSubexpression:
    """Right-to-left greedy computation: step down by s_{i_j} exactly when
    that shortens the running station."""
    w = word.product()
    if not bruhat_leq(v, w):
        raise WeylError(f"{v} is not Bruhat-below the word product {w}")
    m = len(word)
    stations: list[WeylElement] = [v] * (m + 1)
    stations[m] = v
    for j in range(m, 0, -1):
        cand = stations[j].right_s(word.letters[j - 1])
        stations[j - 1] = cand if cand.length < stations[j].length else stations[j]
    if not stations[0].is_identity():
        raise WeylError("greedy subexpression did not reach the identity")
    jplus = frozenset(j for j in range(1, m + 1) if stations[j - 1] != stations[j])
    jcirc = frozenset(range(1, m + 1)) - jplus
    return PositiveSubexpression(word, tuple(stations), jplus, jcirc)


@dataclass(frozen=True)
class ParabolicSubset:
    """A subset J of the generator indices {1..n-1}."""

    n: int
    J: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not all(1 <= j <= self.n - 1 for j in self.J):
            raise WeylError(f"J={set(self.J)} not inside 1..{self.n - 1}")

    @staticmethod
    def of(n: int, js) -> "ParabolicSubset":
        return ParabolicSubset(n, frozenset(js))

    def full(self) -> bool:
        return len(self.J) == self.n - 1

    def blocks(self) -> list[list[int]]:
        """J-blocks: consecutive runs of {1..n} glued along i ∈ J (1-based)."""
        blocks = [[1]]
        for i in range(1, self.n):
            if i in self.J:
                blocks[-1].append(i + 1)
            else:
                blocks.append([i + 1])
        return blocks

    def blocks0(self) -> list[list[int]]:
        """Same blocks with 0-based matrix indices."""
        return [[i - 1 for i in blk] for blk in self.blocks()]

    def boundaries(self) -> list[int]:
        """Proper cumulative block dimensions, i.e. {1..n-1} minus J."""
        return [d for d in range(1, self.n) if d not in self.J]

    def star(self) -> "ParabolicSubset":
        return ParabolicSubset(self.n, frozenset(self.n - j for j in self.J))

    def longest_element(self) -> WeylElement:
        p = list(range(1, self.n + 1))
        for blk in self.blocks():
            lo, hi = blk[0], blk[-1]
            p[lo - 1 : hi] = list(range(hi, lo - 1, -1))
        return WeylElement(tuple(p))

    def contains_w(self, w: WeylElement) -> bool:
        """w ∈ W_J iff w permutes within the J-blocks."""
        for blk in self.blocks():
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
        for blk in self.blocks():
            lo, hi = blk[0], blk[-1]
            p[lo - 1 : hi] = sorted(p[lo - 1 : hi])
        return WeylElement(tuple(p))

    def max_coset_rep(self) -> WeylElement:
        """The longest element of W^J, i.e. w_0 · w^J_0."""
        return longest_w(self.n) * self.longest_element()

    def __repr__(self) -> str:
        return f"J(n={self.n}, {sorted(self.J)})"


def all_parabolic_subsets(n: int) -> list[ParabolicSubset]:
    """Every J ⊆ {1..n-1}, by size and then lexicographically."""
    gens = range(1, n)
    return [ParabolicSubset.of(n, js) for r in range(n) for js in combinations(gens, r)]


def inversion_set(v: WeylElement) -> frozenset[Root]:
    """R(v) = positive roots sent to negative ones, as pairs (i, j), i<j."""
    n = v.n
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if v(i) > v(j)
    )

