"""Versioned JSON persistence with exact rationals as "p/q" strings.

All writers produce byte-identical output for identical inputs: keys are
emitted in a fixed order and rationals always carry an explicit denominator.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cells import CellLabel, enumerate_cells
from .linalg import Matrix, mat
from .matgroup import GroupMatrix
from .strata import CompactPoint
from .weyl import ParabolicSubset, WeylElement

SCHEMA_VERSION = 1


class SchemaError(Exception):
    pass


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {s!r}") from e


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[frac_str(x) for x in row] for row in m]


def matrix_from_json(data) -> Matrix:
    if not isinstance(data, list) or not data:
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
    if not isinstance(data, list):
        raise SchemaError("Weyl element must be a one-line integer list")
    return WeylElement(tuple(int(x) for x in data))


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
    n = int(data["n"])
    J = ParabolicSubset.of(n, data["J"])
    return CompactPoint(
        J,
        group_from_json(data["a"]),
        group_from_json(data["b"]),
        group_from_json(data["g"]),
    )


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
    if n is None:
        n = len(data["v"])
    J = ParabolicSubset.of(n, data["J"])
    return CellLabel(
        J,
        weyl_from_json(data["v"]),
        weyl_from_json(data["w"]),
        weyl_from_json(data["v2"]),
        weyl_from_json(data["w2"]),
        weyl_from_json(data["y"]),
        weyl_from_json(data["y2"]),
    )


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
    g1 = group_from_json(data["g1"])
    g2 = group_from_json(data["g2"])
    c = tuple(int(x) for x in data["c"])
    return g1, c, g2


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
