"""Versioned JSON persistence with exact rationals as "p/q" strings.

All writers produce byte-identical output for identical inputs: keys are
emitted in a fixed order and rationals always carry an explicit denominator.
Every reader raises SchemaError on malformed input: a wrong JSON type, a
missing field, a JSON float (not exact), or matrices and permutations whose
sizes disagree.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cells import CellError, CellLabel, enumerate_cells
from .linalg import Matrix, mat
from .matgroup import GroupMatrix
from .strata import CompactPoint
from .weyl import ParabolicSubset, WeylElement, WeylError

SCHEMA_VERSION = 1


class SchemaError(Exception):
    pass


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: int | str) -> Fraction:
    """A JSON integer or a "p/q" string; floats are refused as inexact."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise SchemaError(f"bad rational {s!r}: use an integer or a 'p/q' string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {s!r}") from e


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[frac_str(x) for x in row] for row in m]


def matrix_from_json(data) -> Matrix:
    if not isinstance(data, list) or not data or not all(
        isinstance(row, list) for row in data
    ):
        raise SchemaError("matrix must be a nonempty list of rows")
    try:
        return mat([[parse_frac(x) for x in row] for row in data])
    except ValueError as e:
        raise SchemaError(f"bad matrix: {e}") from e


def group_to_json(g: GroupMatrix) -> list[list[str]]:
    return matrix_to_json(g.m)


def group_from_json(data) -> GroupMatrix:
    return GroupMatrix(matrix_from_json(data))


def weyl_to_json(w: WeylElement) -> list[int]:
    return list(w.perm)


def weyl_from_json(data) -> WeylElement:
    try:
        return WeylElement(tuple(_ints(data, "Weyl element")))
    except WeylError as e:
        raise SchemaError(str(e)) from e


def point_to_json(z: CompactPoint) -> dict[str, Any]:
    return {
        "v": SCHEMA_VERSION,
        "n": z.n,
        "J": sorted(z.J.J),
        "a": group_to_json(z.a),
        "b": group_to_json(z.b),
        "g": group_to_json(z.g),
    }


def point_from_json(data) -> CompactPoint:
    _check_version(data)
    n = _int(_field(data, "n"), "n")
    J = _parabolic(n, _field(data, "J"))
    a, b, g = (group_from_json(_field(data, key)) for key in ("a", "b", "g"))
    if not a.n == b.n == g.n == n:
        raise SchemaError(f"point matrices a, b, g must all be {n}x{n}")
    return CompactPoint(J, a, b, g)


def label_to_json(label: CellLabel, dim: int | None = None) -> dict[str, Any]:
    out = {
        "J": sorted(label.J.J),
        "v": weyl_to_json(label.v),
        "w": weyl_to_json(label.w),
        "v2": weyl_to_json(label.vp),
        "w2": weyl_to_json(label.wp),
        "y": weyl_to_json(label.y),
        "y2": weyl_to_json(label.yp),
    }
    if dim is not None:
        out["dim"] = dim
    return out


def label_from_json(data, n: int | None = None) -> CellLabel:
    if not isinstance(data, dict):
        raise SchemaError("label must be a JSON object")
    perms = [
        weyl_from_json(_field(data, key)) for key in ("v", "w", "v2", "w2", "y", "y2")
    ]
    n = perms[0].n if n is None else _int(n, "n")
    if any(p.n != n for p in perms):
        raise SchemaError(f"label permutations must all be of 1..{n}")
    try:
        return CellLabel(_parabolic(n, _field(data, "J")), *perms)
    except CellError as e:
        raise SchemaError(str(e)) from e


def cells_to_json(n: int, J: ParabolicSubset | None = None) -> dict[str, Any]:
    records = enumerate_cells(n, J)
    return {
        "v": SCHEMA_VERSION,
        "n": n,
        "count": len(records),
        "cells": [label_to_json(label, dim) for label, dim in records],
    }


def curve_from_json(data) -> tuple[GroupMatrix, tuple[int, ...], GroupMatrix]:
    _check_version(data)
    g1 = group_from_json(_field(data, "g1"))
    g2 = group_from_json(_field(data, "g2"))
    if g1.n != g2.n:
        raise SchemaError(f"g1 is {g1.n}x{g1.n} but g2 is {g2.n}x{g2.n}")
    return g1, tuple(_ints(_field(data, "c"), "exponent")), g2


def chart_to_json(chart, seed: int | None = None) -> dict[str, Any]:
    """Marsh-Rietsch chart as {word, v, coords, seed}."""
    out = {
        "word": list(chart.psub.word.letters),
        "v": weyl_to_json(chart.psub.v),
        "coords": [frac_str(c) for c in chart.coords],
    }
    if seed is not None:
        out["seed"] = seed
    return out


def compound_to_json(m: Matrix, n: int, k: int) -> dict[str, Any]:
    """Compound matrix with its basis-subset labels (self-describing)."""
    from .exterior import subsets_colex

    return {
        "v": SCHEMA_VERSION,
        "degree": k,
        "basis": [list(s) for s in subsets_colex(n, k)],
        "m": matrix_to_json(m),
    }


def parabolic_to_json(p) -> dict[str, Any]:
    """Flag or parabolic subgroup: conjugator plus subset (and side)."""
    return {
        "v": SCHEMA_VERSION,
        "J": sorted(p.J.J),
        "side": "opposite" if p.opposite else "standard",
        "g": group_to_json(p.g),
    }


def dumps(data) -> str:
    return json.dumps(data, indent=1, sort_keys=False) + "\n"


def _check_version(data) -> None:
    if not isinstance(data, dict) or data.get("v") != SCHEMA_VERSION:
        raise SchemaError(f"expected schema v={SCHEMA_VERSION}")


def _field(data: dict, key: str):
    if key not in data:
        raise SchemaError(f"missing field {key!r}")
    return data[key]


def _int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{what} must be an integer, got {x!r}")
    return x


def _ints(data, what: str) -> list[int]:
    if not isinstance(data, list):
        raise SchemaError(f"{what} must be a list of integers, got {data!r}")
    return [_int(x, what) for x in data]


def _parabolic(n: int, data) -> ParabolicSubset:
    if n < 1:
        raise SchemaError(f"n must be positive, got {n}")
    try:
        return ParabolicSubset.of(n, _ints(data, "J"))
    except WeylError as e:
        raise SchemaError(str(e)) from e
