"""Versioned JSON persistence with exact rationals as "p/q" strings.

All writers produce byte-identical output for identical inputs: keys are
emitted in a fixed order and rationals always carry an explicit denominator.
Every reader raises SchemaError on malformed input: a wrong JSON type, a
missing field, a JSON float (not exact), or matrices and permutations whose
sizes disagree.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from typing import Any, Iterator

from .cells import CellError, CellLabel, _chart, _stratum_walk
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
    """A JSON integer or a "p/q" string of ASCII digits, signed or not; floats
    are refused as inexact, and so is any other text ``Fraction`` reads."""
    if type(s) is not int and not (type(s) is str and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s)):
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
    """The point (g1, g2⁻¹)·z°_J as its triple (a, b, g) = (g1, g2⁻¹, g1·g2)."""
    return {
        "v": SCHEMA_VERSION,
        "n": z.n,
        "J": sorted(z.J.J),
        "a": group_to_json(z.g1),
        "b": group_to_json(z.g2.inverse()),
        "g": group_to_json(z.g1 @ z.g2),
    }


def point_from_json(data) -> CompactPoint:
    _check_version(data)
    n = _int(_field(data, "n"), "n")
    J = _parabolic(n, _field(data, "J"))
    a, b, g = (group_from_json(_field(data, key)) for key in ("a", "b", "g"))
    if not a.n == b.n == g.n == n:
        raise SchemaError(f"point matrices a, b, g must all be {n}x{n}")
    return CompactPoint.of_triple(J, a, b, g)


def label_to_json(label: CellLabel, dim: int | None = None) -> dict[str, Any]:
    """{J, v, w, v2, w2, y, y2[, dim]}, each list a fresh one."""
    out = {
        "J": sorted(label.J.J),
        "v": list(label.v.perm),
        "w": list(label.w.perm),
        "v2": list(label.vp.perm),
        "w2": list(label.wp.perm),
        "y": list(label.y.perm),
        "y2": list(label.yp.perm),
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
    try:
        return CellLabel(_parabolic(n, _field(data, "J")), *perms)
    except CellError as e:
        raise SchemaError(str(e)) from e


def cells_to_json(n: int, J: ParabolicSubset | None = None) -> dict[str, Any]:
    """The census {v, n, count, cells}, one {J, v, w, v2, w2, y, y2, dim}
    record per cell in ``enumerate_cells`` order.

    The records come straight from the stratum walk that ``enumerate_cells``
    builds its labels from, with no CellLabel in between.  Each permutation
    is the walk's own ``WeylElement.perm`` tuple and each J one sorted tuple
    per stratum, so the records are read-only and hold no container the
    garbage collector walks; ``json.dumps`` writes the tuples as arrays.

    A record's fields after (v, w) depend on (v, w) only through
    l(w) − l(v), so the records of the first Bruhat pair of each stratum
    and length gap are built as eight-key dict displays, and each later
    pair's as ``first | {"v": v, "w": w}``: one key-table copy and two
    overwrites, with no resize.  Every record is its own dict.

    The "cells" list is a private list subclass that also keeps each
    stratum's parts (J, Bruhat pairs, Levi elements, base), which ``dumps``
    renders from through ``_census_pieces``, the stream ``census_chunks``
    writes.
    """
    cells, strata = _Census(), _census_strata(n, J)
    for subset, pairs, levi, base in strata:
        levis = [(y, yp, ly + lyp) for y, ly in levi for yp, lyp in levi]
        firsts = {}  # base + l(w) − l(v) → the records of its first Bruhat pair
        for v, w, gap in pairs:
            top = base + gap
            first = firsts.get(top)
            if first is None:
                first = firsts[top] = [
                    {
                        "J": subset, "v": v, "w": w, "v2": vp, "w2": wp,
                        "y": y, "y2": yp, "dim": top + g - l,
                    }
                    for vp, wp, g in pairs
                    for y, yp, l in levis
                ]
                cells.extend(first)
            else:
                vw = {"v": v, "w": w}
                cells.extend([record | vw for record in first])
    cells.strata, cells.n, cells.size = strata, n, len(cells)
    return {"v": SCHEMA_VERSION, "n": n, "count": len(cells), "cells": cells}


def census_chunks(n: int, J: ParabolicSubset | None = None) -> Iterator[str]:
    """``dumps(cells_to_json(n, J))`` in pieces: the header, one text per
    stratum and first Bruhat pair, and the footer, with no record dicts and
    never a whole stratum in memory.  Each chunk is one list of
    ``_census_pieces`` joined, the stream ``dumps`` renders a census from.

    A chunk holds at most |Bruhat pairs of W^J|·|W_J|² records, about
    1.5 MB at n = 5.  The stratum walk runs on the call, so a bad n or J
    raises CellError before anything is written; each chunk is rendered
    when the iterator reaches it."""
    strata = _census_strata(n, J)
    count = sum(len(pairs) ** 2 * len(levi) ** 2 for _, pairs, levi, _ in strata)
    return map("".join, _census_pieces(n, count, strata))


def _census_pieces(n: int, count: int, strata: list) -> Iterator[list]:
    """The census text as ``json.dumps(indent=1)`` writes it, in lists of
    pieces: the header, one list per stratum and first Bruhat pair from
    ``_render_stratum``, and the footer.  Joining every piece of every list
    gives the file."""
    yield [f'{{\n "v": {SCHEMA_VERSION},\n "n": {n},\n "count": {count},\n "cells": [']
    chunks = chain.from_iterable(_render_stratum(n, *stratum) for stratum in strata)
    first = next(chunks)
    first[0] = first[0][1:]  # the first record has no comma before it
    yield first
    yield from chunks
    yield ["\n ]\n}\n"]


def _census_strata(n: int, J: ParabolicSubset | None = None) -> list:
    """``cells._stratum_walk(n, J)`` as tuples: per stratum (sorted J,
    [(v, w, l(w) − l(v))], [(y, l(y))], base) with every permutation the
    walk's ``WeylElement.perm``."""
    return [
        (
            tuple(sorted(Js.J)),
            [(v.perm, w.perm, gap) for v, w, gap in pairs],
            [(y.perm, ly) for y, ly in levi],
            base,
        )
        for Js, pairs, levi, base in _stratum_walk(n, J)
    ]


class _Census(list):
    """``cells_to_json``'s records, with the per-stratum parts
    (J, [(v, w, gap)], [(y, l(y))], base) they were built from, the n they
    were built for and their number."""

    __slots__ = ("strata", "n", "size")


def curve_from_json(data) -> tuple[GroupMatrix, tuple[int, ...], GroupMatrix]:
    _check_version(data)
    g1 = group_from_json(_field(data, "g1"))
    g2 = group_from_json(_field(data, "g2"))
    if g1.n != g2.n:
        raise SchemaError(f"g1 is {g1.n}x{g1.n} but g2 is {g2.n}x{g2.n}")
    return g1, tuple(_ints(_field(data, "c"), "exponent")), g2


def charts_to_json(label: CellLabel, coords) -> dict[str, Any]:
    """The label's chart at coords, cut as ``cells._chart`` cuts it: each
    Marsh-Rietsch flag chart as {word, v, coords}, then the Levi's lower
    leg, torus (one entry per simple root) and upper leg."""
    (p1, c1), (p2, c2), (_, _, aminus, tor, aplus) = _chart(label, coords)

    def flag(psub, cs):
        return {
            "word": list(psub.word.letters),
            "v": weyl_to_json(psub.v),
            "coords": [frac_str(c) for c in cs],
        }

    return {
        "flag1": flag(p1, c1),
        "flag2": flag(p2, c2),
        "levi_minus": [frac_str(c) for c in aminus],
        "levi_torus": [frac_str(c) for c in tor],
        "levi_plus": [frac_str(c) for c in aplus],
    }


def dumps(data) -> str:
    """``json.dumps(data, indent=1) + "\\n"``, byte for byte.

    A census that ``cells_to_json`` built and nobody has re-keyed, recounted
    or re-listed since is rendered from its strata by ``_census_pieces``,
    the stream ``census_chunks`` writes chunk by chunk, with every piece
    joined in one pass: each J, Bruhat pair and Levi element text is a
    string join of its ints, made once with no JSON encoder call, and every
    record is joined from those texts.  Every other document goes to
    ``json.dumps``.

    Precondition: a census's records are read-only.  The fast path checks
    the header and the record count, not the records, so a census whose
    records were edited, reordered or replaced in place is rendered as it
    was built; pass ``dict(census, cells=list(census["cells"]))`` to render
    edited records.
    """
    if type(data) is dict and list(data) == ["v", "n", "count", "cells"]:
        *head, cells = data.values()
        if (
            type(cells) is _Census
            and list(map(type, head)) == [int, int, int]
            and head == [SCHEMA_VERSION, cells.n, len(cells)]
            and len(cells) == cells.size
        ):
            return "".join(chain.from_iterable(_census_pieces(cells.n, cells.size, cells.strata)))
    return json.dumps(data, indent=1) + "\n"


def _field_text(key: str, xs: tuple) -> str:
    """One record field as ``json.dumps(xs, indent=1)`` writes it at record
    depth, with the comma and indent after it: xs is a tuple of ints."""
    if not xs:
        return f'"{key}": [],\n   '
    return f'"{key}": [\n    ' + ",\n    ".join(map(str, xs)) + "\n   ],\n   "


def _render_stratum(n: int, subset: tuple, pairs: list, levi: list, base: int) -> Iterator[list]:
    """One stratum's records as ``json.dumps(indent=1)`` writes them inside
    the "cells" array, each with the comma before it: one list of pieces
    per first Bruhat pair (v, w), in record order.

    A record is two pieces: the J and (v, w) text of its stratum and first
    Bruhat pair, and the rest, its (v', w') and (y, y') texts and its
    dimension with the record's closing brace.  The rests depend on (v, w)
    only through l(w) − l(v), so each is built once per stratum and length
    gap, not per record.  Each field text is a string join of its ints,
    made once per stratum, Bruhat pair or Levi element."""
    tails = [f"{d}\n  }}" for d in range(n * n)]  # a dimension is at most n² − 1
    head = ",\n  {\n   " + _field_text("J", subset)
    seconds = [(_field_text("v2", v) + _field_text("w2", w), gap) for v, w, gap in pairs]
    ys = [(_field_text("y", y), _field_text("y2", y) + '"dim": ', ly) for y, ly in levi]
    levis = [(ty + ty2, ly + lyp) for ty, _, ly in ys for _, ty2, lyp in ys]
    rests = {}  # base + l(w) − l(v) → the rest of every record after (v, w)
    for v, w, gap in pairs:
        top = base + gap
        if top not in rests:
            rests[top] = [second + lt + tails[top + g - l] for second, g in seconds for lt, l in levis]
        pieces = [head + _field_text("v", v) + _field_text("w", w)] * (2 * len(rests[top]))
        pieces[1::2] = rests[top]
        yield pieces


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
