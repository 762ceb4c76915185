"""The ring-generic matrix product and compound under the names that the
per-layer metrics of BENCHMARK.json still read.  Nothing in the package
calls them: the Jacobian rank check reads tangent vectors over the
rationals (``cells._tangent_rank``), and the dual-number ring it once ran
on is the tests' oracle (``tests/oracles.py::Dual``)."""

from __future__ import annotations

from .exterior import compound
from .linalg import Matrix, matmul


def dmat_mul(a: Matrix, b: Matrix) -> Matrix:
    return matmul(a, b)


def dmat_compound(m: Matrix, k: int) -> Matrix:
    return compound(m, k)
