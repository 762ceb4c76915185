"""Fundamental representations of SL_n as exterior powers.

The k-th fundamental representation acts on Λ^k(Q^n) by the k-th compound
matrix (all k×k minors).  The wedge basis e_S, ordered colexicographically,
is the canonical basis for these minuscule weights; the top subset {1..k}
comes first and is the highest weight vector.

An EmbeddingData bundles, for a stratum label J, the representation pair
used to realize boundary points as a projective matrix pair, together with
the rank-one projector I_1 and the Levi-weight projector I_L.  Only
fundamental or trivial highest weights are available; strata needing more
raise UnsupportedStratumError and are handled by the flag-based classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from . import linalg as la
from .linalg import Matrix
from .matgroup import GroupMatrix
from .weyl import ParabolicSubset


class UnsupportedStratumError(Exception):
    """The stratum needs a non-fundamental highest weight."""


def subsets_colex(n: int, k: int) -> list[tuple[int, ...]]:
    """k-subsets of {1..n} in colexicographic order ({1..k} first)."""
    subs = list(combinations(range(1, n + 1), k))
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


@dataclass(frozen=True)
class FundamentalRep:
    """Λ^k of the standard representation; k = 0 is the trivial one."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"exterior degree {self.k} out of range for n={self.n}")

    @property
    def dim(self) -> int:
        from math import comb

        return comb(self.n, self.k)

    @property
    def basis(self) -> list[tuple[int, ...]]:
        return subsets_colex(self.n, self.k)

    @property
    def support(self) -> frozenset[int]:
        """Support of the highest weight: {k} for 0 < k < n, else empty."""
        if 0 < self.k < self.n:
            return frozenset({self.k})
        return frozenset()

    def matrix(self, g: GroupMatrix) -> Matrix:
        return compound(g.m, self.k)


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


def levi_weight_indicator(n: int, k: int, J: ParabolicSubset) -> tuple[Matrix, int]:
    """Diagonal 0/1 projector onto the basis vectors whose weight differs from
    the highest weight by a combination of {α_j : j ∈ J} only, plus their
    count.  For the supported embedding reps these occupy the leading colex
    positions (asserted where it matters, in embedding_data); for general
    (k, J) the projector need not be a basis prefix.
    """
    subs = subsets_colex(n, k)
    bounds = J.boundaries()
    flags = []
    for s in subs:
        ok = all(
            sum(1 for x in s if x <= d) == min(k, d) for d in bounds
        )
        flags.append(ok)
    n0 = sum(flags)
    dim = len(subs)
    diag = tuple(
        tuple(
            Fraction(1) if (i == j and flags[i]) else Fraction(0)
            for j in range(dim)
        )
        for i in range(dim)
    )
    return diag, n0


@dataclass(frozen=True)
class EmbeddingData:
    """Representation pair realizing the stratum J, with projectors.

    exact_criterion records whether the supports match the stratum exactly
    (supp λ1 = I−J and supp λ2 = J), which is what the entrywise positivity
    criterion needs; the J = I fallback for n ≥ 3 only supports the forward
    direction and base-point checks.
    """

    J: ParabolicSubset
    rep1: FundamentalRep
    rep2: FundamentalRep
    I1: Matrix
    IL: Matrix
    n0: int
    exact_criterion: bool


def embedding_data(J: ParabolicSubset) -> EmbeddingData:
    n = J.n
    I = frozenset(range(1, n))
    complement = I - J.J
    if len(complement) == 0:
        rep1 = FundamentalRep(n, 0)
    elif len(complement) == 1:
        rep1 = FundamentalRep(n, next(iter(complement)))
    else:
        raise UnsupportedStratumError(
            f"no fundamental weight with support I-J = {sorted(complement)}"
        )
    if len(J.J) == 0:
        rep2 = FundamentalRep(n, 0)
    elif len(J.J) == 1:
        rep2 = FundamentalRep(n, next(iter(J.J)))
    elif J.J == I:
        rep2 = FundamentalRep(n, 1)
    else:
        raise UnsupportedStratumError(
            f"no fundamental weight with support J = {sorted(J.J)}"
        )
    i1 = tuple(
        tuple(
            Fraction(1) if i == 0 and j == 0 else Fraction(0)
            for j in range(rep1.dim)
        )
        for i in range(rep1.dim)
    )
    il, n0 = levi_weight_indicator(n, rep2.k, J)
    if any(il[i][i] == 0 for i in range(n0)):
        raise AssertionError("Levi-weight vectors must lead the basis")
    exact = (rep1.support == complement) and (rep2.support == J.J)
    return EmbeddingData(J, rep1, rep2, i1, il, n0, exact)


def stratum_indicator(J: ParabolicSubset, k: int) -> Matrix:
    """Limit projector of Λ^k along any one-parameter curve into stratum J:
    indicator of the k-subsets maximizing the weight, block by block."""
    return levi_weight_indicator(J.n, k, J)[0]


# ---------------------------------------------------------------------------
# projective matrices

def proj_equal(a: Matrix, b: Matrix) -> bool:
    """Equality in P(End V): a = c·b for a nonzero rational c."""
    if la.dims(a) != la.dims(b):
        return False
    ca = next((x for row in a for x in row if x != 0), None)
    cb = next((x for row in b for x in row if x != 0), None)
    if ca is None or cb is None:
        return ca is None and cb is None
    return la.scale(a, cb) == la.scale(b, ca)


def strictly_signed(m: Matrix) -> bool:
    """All entries strictly positive up to a global sign (projective >0)."""
    entries = [x for row in m for x in row]
    return all(x > 0 for x in entries) or all(x < 0 for x in entries)


def iJ_of_group_element(g: GroupMatrix, data: EmbeddingData) -> tuple[Matrix, Matrix]:
    """([ρ1(g)], [ρ2(g)]) as plain matrices, understood projectively."""
    return (data.rep1.matrix(g), data.rep2.matrix(g))
