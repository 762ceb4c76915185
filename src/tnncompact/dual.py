"""Forward-mode dual numbers over the rationals.

Each value carries an exact gradient vector; matrix products and minors
propagate derivatives by the product rule, so Jacobians of chart maps are
exact rational matrices whose rank is decided with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exterior import compound
from .linalg import frac, matmul


@dataclass(frozen=True)
class Dual:
    val: Fraction
    grad: tuple[Fraction, ...]

    @staticmethod
    def const(x, nvars: int) -> "Dual":
        return Dual(frac(x), (Fraction(0),) * nvars)

    @staticmethod
    def var(x, index: int, nvars: int) -> "Dual":
        g = [Fraction(0)] * nvars
        g[index] = Fraction(1)
        return Dual(frac(x), tuple(g))

    def __add__(self, o: "Dual") -> "Dual":
        return Dual(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    def __sub__(self, o: "Dual") -> "Dual":
        return Dual(self.val - o.val, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __neg__(self) -> "Dual":
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __mul__(self, o: "Dual") -> "Dual":
        return Dual(
            self.val * o.val,
            tuple(self.val * b + o.val * a for a, b in zip(self.grad, o.grad)),
        )

    def __truediv__(self, o: "Dual") -> "Dual":
        if o.val == 0:
            raise ZeroDivisionError("dual division by zero value")
        v = self.val / o.val
        return Dual(
            v,
            tuple(
                (a - v * b) / o.val for a, b in zip(self.grad, o.grad)
            ),
        )

    def __bool__(self) -> bool:
        """True unless this is the ring zero: a zero value with a nonzero
        gradient is not zero."""
        return self.val != 0 or any(self.grad)


DMatrix = tuple[tuple[Dual, ...], ...]


def dmat_const(m, nvars: int) -> DMatrix:
    return tuple(tuple(Dual.const(x, nvars) for x in row) for row in m)


def dmat_identity(n: int, nvars: int) -> DMatrix:
    return tuple(
        tuple(Dual.const(int(i == j), nvars) for j in range(n)) for i in range(n)
    )


# The ring-generic linalg.matmul and exterior.compound under their old names,
# which the per-layer metrics of BENCHMARK.json still use.
def dmat_mul(a: DMatrix, b: DMatrix) -> DMatrix:
    return matmul(a, b)


def dmat_compound(m: DMatrix, k: int) -> DMatrix:
    return compound(m, k)
