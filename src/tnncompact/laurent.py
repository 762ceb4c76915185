"""Single-variable Laurent polynomials over the rationals.

Used for exact one-parameter torus curves: limits into boundary strata are
taken by dividing by the minimal valuation and evaluating at 0, with no
numerical thresholds anywhere.
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

    coeffs: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)

    @staticmethod
    def of(data: Mapping[int, Fraction] | int | Fraction | str) -> "Laurent":
        if isinstance(data, Mapping):
            items = {int(e): frac(c) for e, c in data.items() if frac(c) != 0}
        else:
            c = frac(data)
            items = {0: c} if c != 0 else {}
        return Laurent(tuple(sorted(items.items())))

    @staticmethod
    def monomial(e: int, c=1) -> "Laurent":
        return Laurent.of({e: frac(c)})

    def __bool__(self) -> bool:
        """True unless this is the zero polynomial."""
        return bool(self.coeffs)

    def valuation(self) -> int:
        if not self:
            raise ValueError("valuation of zero")
        return self.coeffs[0][0]

    def coeff(self, e: int) -> Fraction:
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return Fraction(0)

    def __add__(self, other: "Laurent") -> "Laurent":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, Fraction(0)) + c
        return Laurent.of(d)

    def __neg__(self) -> "Laurent":
        return Laurent(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return Laurent.of(d)

    def __repr__(self) -> str:
        if not self:
            return "0"
        return " + ".join(f"{c}*s^{e}" for e, c in self.coeffs)


LMatrix = tuple[tuple[Laurent, ...], ...]


def lmat_from_rational(m) -> LMatrix:
    return tuple(tuple(Laurent.of(x) for x in row) for row in m)


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
