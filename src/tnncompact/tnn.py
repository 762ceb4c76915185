"""Samplers and evaluators for the totally nonnegative parametrizations.

phi_plus/phi_minus realize words in the Chevalley generators; Marsh-Rietsch
charts evaluate to the cells of the flag variety; double Bruhat charts give
the cells of the monoid of totally nonnegative elements.  Each chart is a
word of steps, and ``matgroup``'s word evaluator, which builds every group
element, multiplies it out over any ring, so the Jacobian rank check in
``cells`` differentiates the sampler's own chart.  Every sampler is driven by an explicit seeded random.Random, and strict or nonneg positivity
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
from .matgroup import GroupMatrix, _word_element, bruhat_cell, torus
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
# chart words, in the step format of matgroup._evaluate_word

def _mr_steps(psub: PositiveSubexpression, coords) -> list:
    """y_{i_j}(a_j) on the free steps of psub, ṡ_{i_j} on the others."""
    it = iter(coords)
    return [
        ("y", i, next(it)) if j in psub.jcirc else ("s", i, None)
        for j, i in enumerate(psub.word.letters, start=1)
    ]


def _double_cell_steps(wminus: WeylElement, aminus, tor, wplus: WeylElement, aplus):
    """y-word(wminus) · torus · x-word(wplus) over lexicographically least
    reduced words."""
    return (
        [("y", i, a) for i, a in zip(lex_min_reduced_word(wminus).letters, aminus)]
        + [("t", 0, tuple(tor))]
        + [("x", i, a) for i, a in zip(lex_min_reduced_word(wplus).letters, aplus)]
    )


# ---------------------------------------------------------------------------
# generator words

def phi_plus(word: ReducedWord, coords: Sequence) -> GroupMatrix:
    """x_{i_1}(a_1)···x_{i_m}(a_m); coordinates must be nonnegative."""
    return _phi(word, coords, "x")


def phi_minus(word: ReducedWord, coords: Sequence) -> GroupMatrix:
    return _phi(word, coords, "y")


def _phi(word: ReducedWord, coords: Sequence, kind: str) -> GroupMatrix:
    vals = [frac(c) for c in coords]
    if len(vals) != len(word):
        raise ParamError(f"{len(vals)} coordinates for a length-{len(word)} word")
    if any(v < 0 for v in vals):
        raise ParamError("negative coordinate")
    return _word_element(word.n, [(kind, i, a) for i, a in zip(word.letters, vals)])


# ---------------------------------------------------------------------------
# positivity certificates (exact minor tests)

# The minor tests run on la._integer_rows(m): a positive scaling of a row
# multiplies every minor through that row by a positive number, so every
# sign is the rational matrix's, and the ladder runs on Python ints.

def is_tnn_matrix(m: la.Matrix) -> bool:
    a = la._integer_rows(m)[0]
    return all(x >= 0 for c in compounds(a, len(a)) for row in c for x in row)


def _all_compound_entries_positive(m: la.Matrix) -> bool:
    a = la._integer_rows(m)[0]
    return all(x > 0 for c in compounds(a, len(a)) for row in c for x in row)


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


def in_unipotent_cell(u: GroupMatrix, w: WeylElement, lower: bool) -> bool:
    """Exact membership in U^-_{w,>0} (lower) or U^+_{w,>0} (upper): a
    unipotent TNN matrix whose lower-left rank profile gives w.

    Transposing an upper product reverses its word, so the upper case reads
    the cell of uᵀ and inverts.
    """
    tri = la.is_lower_triangular(u.m) if lower else la.is_upper_triangular(u.m)
    if not tri or any(u.m[i][i] != 1 for i in range(u.n)):
        return False
    if not is_tnn_matrix(u.m):
        return False
    return (bruhat_cell(u) if lower else bruhat_cell(u.T).inverse()) == w


# ---------------------------------------------------------------------------
# seeded rationals

_BOUND = 6  # numerators and denominators are drawn from 1.._BOUND


def rand_pos_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, _BOUND), rng.randint(1, _BOUND))


def rand_nonneg_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.15:
        return Fraction(0)
    return rand_pos_fraction(rng)


# ---------------------------------------------------------------------------
# samplers

def sample_T_gt0(n: int, rng: random.Random) -> GroupMatrix:
    return torus([rand_pos_fraction(rng) for _ in range(n - 1)])


def sample_Uplus_gt0(n: int, rng: random.Random) -> GroupMatrix:
    word = lex_min_reduced_word(longest_w(n))
    return phi_plus(word, [rand_pos_fraction(rng) for _ in range(len(word))])


def sample_Uminus_gt0(n: int, rng: random.Random) -> GroupMatrix:
    word = lex_min_reduced_word(longest_w(n))
    return phi_minus(word, [rand_pos_fraction(rng) for _ in range(len(word))])


def sample_G_gt0(n: int, rng: random.Random) -> GroupMatrix:
    """U^-_{>0} T_{>0} U^+_{>0}; all minors strictly positive (certified in tests)."""
    return sample_Uminus_gt0(n, rng) @ sample_T_gt0(n, rng) @ sample_Uplus_gt0(n, rng)


def sample_L_ge0(J: ParabolicSubset, rng: random.Random) -> GroupMatrix:
    """Block-diagonal TNN sample of the Levi: phi_minus · torus · phi_plus
    built from generators j ∈ J only."""
    w0j = J.longest_element()
    um, up = ([rand_nonneg_fraction(rng) for _ in range(w0j.length)] for _ in range(2))
    tor = [rand_pos_fraction(rng) for _ in range(J.n - 1)]
    return _word_element(J.n, _double_cell_steps(w0j, um, tor, w0j, up))


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
    coords = [frac(c) for c in chart.coords]
    return _word_element(chart.psub.word.n, _mr_steps(chart.psub, coords))


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
    aminus, tor, aplus = ([frac(c) for c in cs] for cs in (p.aminus, p.torus, p.aplus))
    return _word_element(
        p.wminus.n, _double_cell_steps(p.wminus, aminus, tor, p.wplus, aplus)
    )

