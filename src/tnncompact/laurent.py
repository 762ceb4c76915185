"""Single-variable Laurent polynomials over the rationals.

Exact one-parameter torus curves: a limit is taken by dividing by the
minimal valuation and evaluating at 0, with no numerical thresholds.  The
library takes torus limits in closed form (strata.torus_limit); the
``limits`` verification suite and the tests' curve oracle run the curve on
this ring, to check that closed form.
Coefficients are Fractions or ints: ``of`` refuses any other value (a
bool, a float, a string), as linalg.frac does, and keeps each coefficient
as it is given, as the ring operations do, so a curve of integer matrices
is computed over the integers.  Exponents are ints: ``of`` refuses any
other key (a float, a string, a bool) with TypeError rather than truncate
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .exterior import compound
from .linalg import frac, matmul


@dataclass(frozen=True)
class Laurent:
    """Finite Laurent polynomial sum_e coeffs[e] * s^e."""

    coeffs: tuple[tuple[int, Fraction | int], ...] = field(default_factory=tuple)

    @staticmethod
    def of(data: Mapping[int, Fraction] | int | Fraction) -> "Laurent":
        items = data if isinstance(data, Mapping) else {0: data}
        if any(type(e) is not int for e in items):
            raise TypeError(f"Laurent exponents must be ints: {list(items)}")
        return _trusted({e: c if type(c) is int else frac(c) for e, c in items.items()})

    @staticmethod
    def monomial(e: int, c=1) -> "Laurent":
        return Laurent.of({e: c})

    def __bool__(self) -> bool:
        """True unless this is the zero polynomial."""
        return bool(self.coeffs)

    def valuation(self) -> int:
        if not self:
            raise ValueError("valuation of zero")
        return self.coeffs[0][0]

    def coeff(self, e: int) -> Fraction | int:
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return 0

    def __add__(self, other: "Laurent") -> "Laurent":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return _trusted(d)

    def __neg__(self) -> "Laurent":
        return Laurent(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict[int, Fraction | int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return _trusted(d)

    def __repr__(self) -> str:
        if not self:
            return "0"
        return " + ".join(f"{c}*s^{e}" for e, c in self.coeffs)


def _trusted(d: dict[int, Fraction | int]) -> Laurent:
    """The Laurent polynomial of a ring result: integer exponents and exact
    coefficients already, so only zeros are dropped and the terms sorted."""
    terms = [t for t in d.items() if t[1]]
    terms.sort()
    z = object.__new__(Laurent)
    z.__dict__["coeffs"] = tuple(terms)
    return z


LMatrix = tuple[tuple[Laurent, ...], ...]


# The ring-generic linalg.matmul and exterior.compound under their old names,
# which the per-layer metrics of BENCHMARK.json still use.
def lmat_mul(a: LMatrix, b: LMatrix) -> LMatrix:
    return matmul(a, b)


def lmat_det(m: LMatrix) -> Laurent:
    return compound(m, len(m))[0][0]


def lmat_compound(m: LMatrix, k: int) -> LMatrix:
    return compound(m, k)


def lmat_limit(m: LMatrix):
    """Divide by s^(min valuation) and evaluate at s = 0: the projective limit."""
    vals = [x.valuation() for row in m for x in row if x]
    if not vals:
        raise ValueError("limit of the zero matrix")
    v = min(vals)
    return tuple(tuple(x.coeff(v) for x in row) for row in m)
