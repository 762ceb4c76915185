"""Fundamental representations of SL_n as exterior powers.

The k-th fundamental representation acts on Λ^k(Q^n) by the k-th compound
matrix (all k×k minors).  The wedge basis e_S, ordered colexicographically,
is the canonical basis for these minuscule weights; the top subset {1..k}
comes first and is the highest weight vector.

All minors come from one ladder, ``_kept_minors``: it builds the minors
of a matrix on chosen column sets, over every row set, degree by degree,
each by expansion along its last column over minors of the degree below,
and it runs a flat index plan (``_ladder``) in one pass per degree.  The
plan of every column set gives the whole compounds (``compounds``) and the
total positivity tests.  For a stratum J, D_k = stratum_indicator(J, k) is
the limit projector of ρ_k, and strata.fundamental_tuple maps a point of
Z_J to every ρ_k(g1)·D_k·ρ_k(g2), k = 1..n−1, at once.  D_k keeps the
Levi-weight k-subsets K_k only, so each entry is summed over K_k from the
minors of g1 on the columns K_k and of g2 on the rows K_k, which the
ladder builds on the plan of the kept sets; on J = I, where K_k is every
subset, the entry is the compound of g1·g2.  The paper's entrywise
criterion (*) reads two degrees: an EmbeddingData names the degrees k1 and
k2 of its representation pair, where I_1 = D_{k1} is the rank-one
projector onto the highest weight line and I_L = D_{k2} the Levi-weight
projector, so the (*) pair (strata.iJ_of_point) is two entries of the
fundamental tuple.  Only fundamental or trivial highest weights are
available; strata needing more raise UnsupportedStratumError.  Membership
in the positive part reads the whole tuple (strata.membership_Zgt0); it is
the only positivity test for stratum points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, repeat
from math import comb, gcd, lcm
from operator import itemgetter, mul, neg
from typing import Iterator

from .linalg import Matrix
from .weyl import ParabolicSubset


class UnsupportedStratumError(Exception):
    """The stratum needs a non-fundamental highest weight."""


def subsets_colex(n: int, k: int) -> list[tuple[int, ...]]:
    """k-subsets of {1..n} in colexicographic order ({1..k} first)."""
    subs = list(combinations(range(1, n + 1), k))
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


def compound(m: Matrix, k: int) -> Matrix:
    """k-th compound of the square matrix m: entry (S, T) is the minor with
    rows S and columns T.  Degree 0 is the 1×1 matrix (1)."""
    level: Matrix = ((Fraction(1),),)
    for level in compounds(m, k):
        pass
    return level


def compounds(m: Matrix, top: int) -> Iterator[Matrix]:
    """The compounds of degree 1, 2, ..., top of the square matrix m, one
    after the other.

    They are read off the minor ladder of mᵀ on every column set
    (``_full_ladder``): the minors of mᵀ on the columns T, over every row
    set, are row T of ρ_k(m).  Only +, − and × are used, and the zero every
    sum starts from is read off the entries, so they may come from any
    commutative ring: int (the compounds of an int matrix are ints),
    Fraction, Laurent and Dual alike.  A ragged or non-square m raises
    ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("compound of a ragged or non-square matrix")
    if not 0 <= top <= n:
        raise ValueError(f"compound degree {top} out of range")
    return _compound_rows(tuple(chain.from_iterable(zip(*m))), n, top)


def _compound_rows(x: tuple, n: int, top: int) -> Iterator[Matrix]:
    """The compounds of degree 1..top of the n×n matrix whose transpose is
    x, read row-major: each level of the full ladder, C(n, k) entries at a
    time."""
    if top:
        for k, level in zip(range(1, top + 1), _kept_minors(x, _full_ladder(n))):
            yield tuple(zip(*[iter(level)] * comb(n, k)))


@cache
def _expansion(n: int, k: int):
    """The terms of every k-minor det X[S, T] of an n×n matrix X expanded
    along its last column, Σ_j (−1)^{j+k}·X[s_j, t_k]·det X[S∖s_j, T∖t_k],
    S in colex order and j = 1..k within S: where row s_j starts in X
    read row-major and followed by its negation (in the negated copy when
    the sign is −), and the colex position of S∖s_j; and C(n, k−1)."""
    below = {s: i for i, s in enumerate(subsets_colex(n, k - 1))}
    terms = tuple(
        ((s[j] - 1) * n + n * n * ((j + k) % 2 == 0), below[s[:j] + s[j + 1 :]])
        for s in subsets_colex(n, k)
        for j in range(k)
    )
    return len(below), terms


def _ladder(n: int, kept: list[list[tuple[int, ...]]]):
    """The plan of ``_kept_minors`` for the minors of an n×n matrix X on
    the column sets kept[k−1], k = 1, 2, ..., over every row set.  Each set
    T of degree k ≥ 2 minus its largest element t_k must be a set T′ of
    degree k−1, so that its minors expand along their last column over
    minors of the degree below (``_expansion``).  The plan is the getter of
    degree 1 and, per degree k ≥ 2, k and the getters of every term's
    ±X[s_j, t_k] and det X[S∖s_j, T′]."""
    cells = [s * n + t - 1 for (t,) in kept[0] for s in range(n)]
    # a getter of one index returns the entry itself, not a 1-tuple (n = 1)
    first = itemgetter(*cells) if len(cells) > 1 else lambda x: x[:1]
    steps = []
    for k in range(2, len(kept) + 1):
        width, terms = _expansion(n, k)
        parent = {t: i * width for i, t in enumerate(kept[k - 2])}
        ends = [(t[-1] - 1, parent[t[:-1]]) for t in kept[k - 1]]
        pick = itemgetter(*(x + c for c, _ in ends for x, _ in terms))
        below = itemgetter(*(y + p for _, p in ends for _, y in terms))
        steps.append((k, pick, below))
    return first, tuple(steps)


@cache
def _full_ladder(n: int):
    """The ladder of every column set, degrees 1..n: all minors of X."""
    return _ladder(n, [subsets_colex(n, k) for k in range(1, n + 1)])


def _kept_minors(x: tuple, ladder) -> Iterator[tuple]:
    """Degree after degree, the minors of the n×n matrix X, given row-major
    as the flat tuple x, on the column sets of the ladder (see ``_ladder``),
    as one flat tuple per degree: column set after column set, each over
    the k-subsets of rows in colex order.

    Each degree is one pass over the terms of its expansion: the products
    of the two picks, summed k at a time.  Only +, − and × are used, and
    the zero every sum starts from is read off the entries, so they may
    come from any commutative ring: int, Fraction, Laurent and Dual
    alike."""
    first, steps = ladder
    zero = x[0] - x[0]
    signed = x + tuple(map(neg, x))
    level = first(signed)
    yield level
    for k, pick, below in steps:
        level = tuple(map(sum, zip(*[map(mul, pick(signed), below(level))] * k), repeat(zero)))
        yield level


@cache
def _levi_weight_positions(n: int, k: int, J: ParabolicSubset) -> tuple[int, ...]:
    """The colex positions of the ones on the diagonal of
    stratum_indicator(J, k), computed once per (n, k, J)."""
    bounds = J.boundaries()
    return tuple(
        i
        for i, s in enumerate(subsets_colex(n, k))
        if all(sum(1 for x in s if x <= d) == min(k, d) for d in bounds)
    )


# Nothing in the package calls stratum_indicator; it stays while
# BENCHMARK.json names it as a per-layer metric.
def stratum_indicator(J: ParabolicSubset, k: int) -> Matrix:
    """Limit projector of Λ^k along any one-parameter curve into stratum J:
    indicator of the k-subsets maximizing the weight, block by block, i.e.
    of the basis vectors whose weight differs from the highest weight by a
    combination of {α_j : j ∈ J} only.  Degree 0 gives the 1×1 matrix (1)."""
    keep = _levi_weight_positions(J.n, k, J)
    dim = len(subsets_colex(J.n, k))
    return tuple(
        tuple(Fraction(int(i == j and i in keep)) for j in range(dim))
        for i in range(dim)
    )


@dataclass(frozen=True)
class EmbeddingData:
    """The degrees k1 and k2 of the representation pair realizing the
    stratum J in the paper's criterion (*); its projectors I_1 and I_L are
    stratum_indicator(J, k1) and stratum_indicator(J, k2).

    The highest weights have supports I−J and J, as (*) asks, except for
    J = I at n ≥ 3: there the second degree is 1, whose support {1} is
    smaller than J, and the pair serves only the forward (*) check and the
    base-point image.
    """

    J: ParabolicSubset
    k1: int
    k2: int


def embedding_data(J: ParabolicSubset) -> EmbeddingData:
    I = frozenset(range(1, J.n))
    complement = I - J.J
    if len(complement) > 1:
        raise UnsupportedStratumError(
            f"no fundamental weight with support I-J = {sorted(complement)}"
        )
    if len(J.J) > 1 and J.J != I:
        raise UnsupportedStratumError(
            f"no fundamental weight with support J = {sorted(J.J)}"
        )
    k2 = 1 if J.J == I else min(J.J, default=0)
    return EmbeddingData(J, min(complement, default=0), k2)


# ---------------------------------------------------------------------------
# projective matrices

def proj_key(m: Matrix) -> Matrix:
    """The primitive integer matrix of the point of P(End V) of a nonzero m:
    m with its denominators cleared, divided by the gcd of its entries, and
    negated when its first nonzero entry is negative.  Two nonzero
    matrices are one projective point exactly when their keys are equal."""
    d = lcm(*(x.denominator for row in m for x in row))
    M = tuple(tuple(int(x * d) for x in row) for row in m)
    g = gcd(*(x for row in M for x in row))
    if next(x for row in M for x in row if x) < 0:
        g = -g
    return tuple(tuple(x // g for x in row) for row in M)


def strictly_signed(m: Matrix) -> bool:
    """All entries strictly positive up to a global sign (projective >0)."""
    entries = [x for row in m for x in row]
    return all(x > 0 for x in entries) or all(x < 0 for x in entries)
