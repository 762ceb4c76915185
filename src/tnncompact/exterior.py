"""Fundamental representations of SL_n as exterior powers.

The k-th fundamental representation acts on Λ^k(Q^n) by the k-th compound
matrix (all k×k minors).  The wedge basis e_S, ordered colexicographically,
is the canonical basis for these minuscule weights; the top subset {1..k}
comes first and is the highest weight vector.

For a stratum J, D_k = stratum_indicator(J, k) is the limit projector of
ρ_k, and strata.fundamental_tuple maps a point of Z_J to every
ρ_k(g1)·D_k·ρ_k(g2), k = 1..n−1, at once.  It builds no whole compound:
D_k keeps the Levi-weight k-subsets K_k only, so each entry is summed over
K_k from the minors of g1 on the columns K_k and of g2 on the rows K_k,
which a ladder of its own builds (strata._kept_minors); on J = I, where
K_k is every subset, it is the compound of g1·g2.  The whole compounds
(compounds) serve the total positivity tests.  The paper's entrywise
criterion (*) reads two of them: an EmbeddingData names the degrees k1 and
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
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
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
    """k-th compound: entry (S, T) is the minor with rows S and columns T.
    Degree 0 is the 1×1 matrix (1)."""
    level: Matrix = ((Fraction(1),),)
    for level in compounds(m, k):
        pass
    return level


@lru_cache(maxsize=None)
def _ladder_plan(n: int, k: int):
    """Index plan for building degree-k minors from degree-(k-1) ones.

    Rows: for each k-subset S (colex), its first element and the position of
    S minus that element.  Columns: for each k-subset T, the triples
    (t_j, position of T minus t_j, j odd) of the first-row expansion.
    """
    below = {s: i for i, s in enumerate(subsets_colex(n, k - 1))}
    subs = subsets_colex(n, k)
    rows = tuple((s[0] - 1, below[s[1:]]) for s in subs)
    cols = tuple(
        tuple((t[j] - 1, below[t[:j] + t[j + 1 :]], j % 2) for j in range(k))
        for t in subs
    )
    return rows, cols


def compounds(m: Matrix, top: int) -> Iterator[Matrix]:
    """Yield the compounds of degree 1, 2, ..., top of the square matrix m.

    Degree k is built from degree k-1 by expanding each k-minor along its
    first row, det m[S, T] = Σ_j (−1)^j m[s_1, t_j] · det m[S∖s_1, T∖t_j].
    Only +, − and × are used and terms with a zero factor are skipped, so
    entries may come from any commutative ring whose ``bool`` means "not
    zero": Fraction, Laurent and Dual alike.
    """
    n = len(m)
    if not 0 <= top <= n:
        raise ValueError(f"compound degree {top} out of range")
    if top == 0:
        return
    zero = m[0][0] - m[0][0]
    prev = m
    yield prev
    for k in range(2, top + 1):
        rows, cols = _ladder_plan(n, k)
        level = []
        for first, rest in rows:
            a, minors = m[first], prev[rest]
            out = []
            for terms in cols:
                acc = zero
                for j, r, odd in terms:
                    x = a[j]
                    if x:
                        y = minors[r]
                        if y:
                            acc = acc - x * y if odd else acc + x * y
                out.append(acc)
            level.append(tuple(out))
        prev = tuple(level)
        yield prev


@lru_cache(maxsize=None)
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
