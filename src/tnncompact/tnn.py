"""Samplers and evaluators for the totally nonnegative parametrizations.

phi_plus/phi_minus realize words in the Chevalley generators; Marsh-Rietsch
charts evaluate to the cells of the flag variety; double Bruhat charts give
the cells of the monoid of totally nonnegative elements.  Every sampler is
driven by an explicit seeded random.Random, and strict or nonneg positivity
is always certified a posteriori by exact minor tests, never assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg as la
from .exterior import compounds
from .linalg import frac
from .matgroup import (
    GroupMatrix,
    generator_x,
    generator_y,
    identity_g,
    sdot,
    torus,
)
from .weyl import (
    ParabolicSubset,
    PositiveSubexpression,
    ReducedWord,
    WeylElement,
    bruhat_leq,
    lex_min_reduced_word,
    longest_w,
    positive_subexpression,
)


class ParamError(Exception):
    pass


# ---------------------------------------------------------------------------
# generator words

def phi_plus(word: ReducedWord, coords: Sequence) -> GroupMatrix:
    """x_{i_1}(a_1)···x_{i_m}(a_m); coordinates must be nonnegative."""
    return _phi(word, coords, generator_x)


def phi_minus(word: ReducedWord, coords: Sequence) -> GroupMatrix:
    return _phi(word, coords, generator_y)


def _phi(word: ReducedWord, coords: Sequence, gen) -> GroupMatrix:
    vals = [frac(c) for c in coords]
    if len(vals) != len(word):
        raise ParamError(f"{len(vals)} coordinates for a length-{len(word)} word")
    if any(v < 0 for v in vals):
        raise ParamError("negative coordinate")
    g = identity_g(word.n)
    for i, a in zip(word.letters, vals):
        g = g @ gen(word.n, i, a)
    return g


# ---------------------------------------------------------------------------
# positivity certificates (exact minor tests)

def is_tnn_matrix(m: la.Matrix) -> bool:
    return all(x >= 0 for c in compounds(m, len(m)) for row in c for x in row)


def _all_compound_entries_positive(m: la.Matrix) -> bool:
    return all(x > 0 for c in compounds(m, len(m)) for row in c for x in row)


def is_totally_positive(g: GroupMatrix) -> bool:
    """g ∈ G_{>0}: every compound matrix entry strictly positive, projectively."""
    if _all_compound_entries_positive(g.m):
        return True
    if g.n % 2 == 0:
        return _all_compound_entries_positive(la.scale(g.m, Fraction(-1)))
    return False


def is_totally_nonneg(g: GroupMatrix) -> bool:
    """g ∈ G_{≥0} (projective): some sign representative is a TNN matrix."""
    if is_tnn_matrix(g.m):
        return True
    if g.n % 2 == 0:
        return is_tnn_matrix(la.scale(g.m, Fraction(-1)))
    return False


def unipotent_cell(u: GroupMatrix, lower: bool) -> WeylElement:
    """For u in U^∓_{w,>0}, recover w from the lower-left rank profile.

    Transposing an upper product reverses its word, so the upper case reads
    the cell of uᵀ and inverts.
    """
    from .matgroup import bruhat_cell

    return bruhat_cell(u) if lower else bruhat_cell(u.T).inverse()


def in_unipotent_cell(u: GroupMatrix, w: WeylElement, lower: bool) -> bool:
    """Exact membership in U^-_{w,>0} (lower) or U^+_{w,>0} (upper)."""
    tri = la.is_lower_triangular(u.m) if lower else la.is_upper_triangular(u.m)
    if not tri or any(u.m[i][i] != 1 for i in range(u.n)):
        return False
    if not is_tnn_matrix(u.m):
        return False
    return unipotent_cell(u, lower) == w


# ---------------------------------------------------------------------------
# seeded rationals

def rand_pos_fraction(rng: random.Random, bound: int = 6) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def rand_nonneg_fraction(rng: random.Random, bound: int = 6) -> Fraction:
    if rng.random() < 0.15:
        return Fraction(0)
    return rand_pos_fraction(rng, bound)


# ---------------------------------------------------------------------------
# samplers

def sample_T_gt0(n: int, rng: random.Random) -> GroupMatrix:
    return torus([rand_pos_fraction(rng) for _ in range(n - 1)])


def sample_Uplus_gt0(n: int, rng: random.Random, w: WeylElement | None = None) -> GroupMatrix:
    w = w if w is not None else longest_w(n)
    word = lex_min_reduced_word(w)
    return phi_plus(word, [rand_pos_fraction(rng) for _ in range(len(word))])


def sample_Uminus_gt0(n: int, rng: random.Random, w: WeylElement | None = None) -> GroupMatrix:
    w = w if w is not None else longest_w(n)
    word = lex_min_reduced_word(w)
    return phi_minus(word, [rand_pos_fraction(rng) for _ in range(len(word))])


def sample_G_gt0(n: int, rng: random.Random) -> GroupMatrix:
    """U^-_{>0} T_{>0} U^+_{>0}; all minors strictly positive (certified in tests)."""
    return sample_Uminus_gt0(n, rng) @ sample_T_gt0(n, rng) @ sample_Uplus_gt0(n, rng)


def sample_L_ge0(J: ParabolicSubset, rng: random.Random) -> GroupMatrix:
    """Block-diagonal TNN sample of the Levi: phi_minus · torus · phi_plus
    built from generators j ∈ J only."""
    w0j = J.longest_element()
    word = lex_min_reduced_word(w0j)
    um = phi_minus(word, [rand_nonneg_fraction(rng) for _ in range(len(word))])
    up = phi_plus(word, [rand_nonneg_fraction(rng) for _ in range(len(word))])
    return um @ sample_T_gt0(J.n, rng) @ up


# ---------------------------------------------------------------------------
# Marsh-Rietsch charts

@dataclass(frozen=True)
class MRChart:
    """Coordinates on the set of products following a positive subexpression:
    y_{i_j}(a_j) on the stationary steps, the signed-permutation lift on the
    climbing ones."""

    psub: PositiveSubexpression
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.psub.jcirc):
            raise ParamError(
                f"{len(self.coords)} coordinates for {len(self.psub.jcirc)} free steps"
            )


def mr_chart(v: WeylElement, w: WeylElement, rng: random.Random) -> MRChart:
    """Chart for (v, w) over the lexicographically least reduced word of w."""
    if not bruhat_leq(v, w):
        raise ParamError(f"{v} not below {w}")
    word = lex_min_reduced_word(w)
    psub = positive_subexpression(word, v)
    coords = tuple(rand_pos_fraction(rng) for _ in range(len(psub.jcirc)))
    return MRChart(psub, coords)


def mr_evaluate(chart: MRChart) -> GroupMatrix:
    if any(c <= 0 for c in chart.coords):
        raise ParamError("nonpositive Marsh-Rietsch coordinate")
    word = chart.psub.word
    n = word.n
    g = identity_g(n)
    it = iter(chart.coords)
    for j, i in enumerate(word.letters, start=1):
        if j in chart.psub.jcirc:
            g = g @ generator_y(n, i, next(it))
        else:
            g = g @ sdot(n, i)
    return g


# ---------------------------------------------------------------------------
# double Bruhat cells of the TNN monoid

@dataclass(frozen=True)
class DoubleCellPoint:
    """Coordinates for U^-_{wminus,>0} T_{>0} U^+_{wplus,>0}."""

    wminus: WeylElement
    wplus: WeylElement
    aminus: tuple[Fraction, ...]
    torus: tuple[Fraction, ...]
    aplus: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.aminus) != self.wminus.length:
            raise ParamError("aminus length mismatch")
        if len(self.aplus) != self.wplus.length:
            raise ParamError("aplus length mismatch")
        if len(self.torus) != self.wminus.n - 1:
            raise ParamError("torus coordinate count must be the rank")
        if any(c <= 0 for c in self.aminus + self.aplus + self.torus):
            raise ParamError("double-cell coordinates must be positive")


def double_cell_evaluate(p: DoubleCellPoint) -> GroupMatrix:
    um = phi_minus(lex_min_reduced_word(p.wminus), p.aminus)
    up = phi_plus(lex_min_reduced_word(p.wplus), p.aplus)
    return um @ torus(p.torus) @ up


def recover_double_cell(g: GroupMatrix) -> tuple[WeylElement, WeylElement]:
    """(wminus, wplus) of a totally nonnegative g, by factoring and reading
    the rank profiles of the unipotent parts."""
    from .matgroup import pi_factor

    um, _, up = pi_factor(g)
    return (unipotent_cell(um, lower=True), unipotent_cell(up, lower=False))
