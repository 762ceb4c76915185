"""Samplers and evaluators for the totally nonnegative parametrizations.

phi_plus realizes words in the Chevalley generators x_i; Marsh-Rietsch
charts evaluate to the cells of the flag variety; double Bruhat charts give
the cells of the monoid of totally nonnegative elements, and G_{>0} is the
chart of (w₀, w₀).  Each chart is a word of steps, and ``matgroup``'s word
evaluator, which builds every group element, multiplies it out over the
integers, and the Jacobian rank check in ``cells`` reads its tangent vectors
off the sampler's own words.  Every sampler is driven by an explicit
seeded random.Random, and strict or nonneg positivity is always certified
a posteriori by exact minor tests, never assumed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import linalg as la
from .exterior import _full_ladder, _interval_ladder, _kept_minors
from .linalg import frac
from .matgroup import GroupMatrix, _word_element, bruhat_cell
from .weyl import (
    PositiveSubexpression,
    ReducedWord,
    WeylElement,
    lex_min_reduced_word,
    longest_w,
)


class ParamError(Exception):
    pass


# ---------------------------------------------------------------------------
# chart words, in the step format of matgroup._word_element

def _mr_steps(psub: PositiveSubexpression, coords) -> list:
    """y_{i_j}(a_j) on the free steps of psub, ṡ_{i_j} on the others."""
    it = iter(coords)
    return [
        ("y", i, next(it)) if j in psub.jcirc else ("s", i, None)
        for j, i in enumerate(psub.word.letters, start=1)
    ]


def _double_cell_steps(wminus: WeylElement, wplus: WeylElement, aminus, tor, aplus):
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
    vals = [frac(c) for c in coords]
    if len(vals) != len(word):
        raise ParamError(f"{len(vals)} coordinates for a length-{len(word)} word")
    if any(v < 0 for v in vals):
        raise ParamError("negative coordinate")
    return _word_element(word.n, [("x", i, a) for i, a in zip(word.letters, vals)])


# ---------------------------------------------------------------------------
# positivity certificates (exact minor tests)

# The minor tests run on Python ints: on a group element's integer matrix M,
# or on a rational matrix's integer form (la._integer_form), a positive
# multiple, which keeps the sign of every minor.  A group element is tested
# on its canonical sign representative: a TNN matrix has entries ≥ 0, so its
# first nonzero entry is positive, and at even n ``canonical()`` picks the
# one of ±M that can pass.  The TP test reads the interval column sets, as
# all initial minors > 0 make a matrix TP (Gasca–Peña); TNN reads them all.

def is_tnn_matrix(m: la.Matrix) -> bool:
    """Whether every minor of the rational matrix m is ≥ 0.  A rectangular
    m is tested padded to square with zero rows or columns, which add only
    zero minors."""
    if not min(la.dims(m)):
        raise ValueError("minor test of an empty matrix")
    a = la._integer_form(la.mat(m))[0]
    n = max(len(a), len(a[0]))
    square = [row + [0] * (n - len(row)) for row in a] + [[0] * n] * (n - len(a))
    return _minors_positive(square, strict=False)


def _minors_positive(a, strict: bool) -> bool:
    """Whether every minor of the integer matrix a is > 0 (strict) or ≥ 0,
    from the least minor of each degree, degree by degree."""
    ladder = (_interval_ladder if strict else _full_ladder)(len(a))
    for level in _kept_minors(tuple(chain.from_iterable(a)), ladder):
        least = min(level)
        if least < 0 or (strict and least == 0):
            return False
    return True


def is_totally_positive(g: GroupMatrix) -> bool:
    """g ∈ G_{>0}: every compound matrix entry strictly positive, projectively."""
    return _minors_positive(g.canonical(), True)


def is_totally_nonneg(g: GroupMatrix) -> bool:
    """g ∈ G_{≥0} (projective): some sign representative is a TNN matrix."""
    return _minors_positive(g.canonical(), False)


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

def sample_Uplus_gt0(n: int, rng: random.Random) -> GroupMatrix:
    word = lex_min_reduced_word(longest_w(n))
    return phi_plus(word, [rand_pos_fraction(rng) for _ in range(len(word))])


def in_Uplus_gt0(u: GroupMatrix) -> bool:
    """Exact membership in U^+_{>0} = U^+_{≥0} ∩ B^-ẇ₀B^-: an upper
    unipotent TNN matrix whose transpose lies in B^+ẇ₀B^+.  u is unipotent
    when M is upper triangular with a constant diagonal, since M is u up to
    a scalar; the minor test then refuses a negative one."""
    M = u.canonical()
    if not la.is_upper_triangular(M) or any(M[i][i] != M[0][0] for i in range(u.n)):
        return False
    return _minors_positive(M, strict=False) and bruhat_cell(u.T) == longest_w(u.n)


def sample_G_gt0(n: int, rng: random.Random) -> GroupMatrix:
    """A point of G_{>0} = U^-_{>0} T_{>0} U^+_{>0}, the double Bruhat chart
    of (w₀, w₀), drawn lower leg, torus, upper leg; all minors strictly
    positive (certified in tests)."""
    w0 = longest_w(n)
    l = w0.length
    am, tor, ap = ([rand_pos_fraction(rng) for _ in range(k)] for k in (l, n - 1, l))
    return double_cell_evaluate(w0, w0, am, tor, ap)


# ---------------------------------------------------------------------------
# Marsh-Rietsch charts

def mr_evaluate(psub: PositiveSubexpression, coords: Sequence) -> GroupMatrix:
    """The product following a positive subexpression: y_{i_j}(a_j) on the
    free steps, at the positive coords, and the signed-permutation lift ṡ
    on the others.  Raises ParamError unless there is one positive
    coordinate per free step."""
    coords = [frac(c) for c in coords]
    if len(coords) != len(psub.jcirc):
        raise ParamError(f"{len(coords)} coordinates for {len(psub.jcirc)} free steps")
    if any(c <= 0 for c in coords):
        raise ParamError("nonpositive Marsh-Rietsch coordinate")
    return _word_element(psub.word.n, _mr_steps(psub, coords))


# ---------------------------------------------------------------------------
# double Bruhat cells of the TNN monoid

def double_cell_evaluate(
    wminus: WeylElement, wplus: WeylElement, aminus: Sequence, tor: Sequence, aplus: Sequence
) -> GroupMatrix:
    """The point of U^-_{wminus,>0} T_{>0} U^+_{wplus,>0} at the positive
    coordinates of the two legs and the torus.  Raises ParamError unless
    wminus and wplus have one rank, each leg has one coordinate per letter,
    the torus one per simple root, and all are positive."""
    if wminus.n != wplus.n:
        raise ParamError("rank mismatch")
    aminus, tor, aplus = ([frac(c) for c in cs] for cs in (aminus, tor, aplus))
    if len(aminus) != wminus.length:
        raise ParamError("aminus length mismatch")
    if len(aplus) != wplus.length:
        raise ParamError("aplus length mismatch")
    if len(tor) != wminus.n - 1:
        raise ParamError("torus coordinate count must be the rank")
    if any(c <= 0 for c in aminus + tor + aplus):
        raise ParamError("double-cell coordinates must be positive")
    return _word_element(wminus.n, _double_cell_steps(wminus, wplus, aminus, tor, aplus))
