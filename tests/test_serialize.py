"""`serialize.dumps` against its oracle, ``json.dumps(x, indent=1) + "\\n"``."""

import gc
import hashlib
import json
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st
from oracles import chart_elements

from tnncompact import cells as cells_mod
from tnncompact import serialize as ser
from tnncompact import verify
from tnncompact.cells import classify, enumerate_cells, sample_cell
from tnncompact.weyl import ParabolicSubset, WeylElement, all_parabolic_subsets


def oracle(x) -> str:
    return json.dumps(x, indent=1) + "\n"


awkward_text = st.sampled_from(
    ['"', "\\", "a\"b\\c", "\n\t\r\b\f", "\x00\x1f", "é", " ", "😀", "</script>"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**20, max_value=10**40).flatmap(
        lambda k: st.sampled_from([k, -k])
    )
    | st.floats()
    | st.text(max_size=6)
    | awkward_text
)
keys = st.text(max_size=4) | awkward_text | st.integers() | st.booleans() | st.none() | st.floats()
json_data = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400)
@given(json_data)
def test_dumps_matches_json_dumps(data):
    assert ser.dumps(data) == oracle(data)


@settings(max_examples=100)
@given(st.lists(st.lists(st.integers(-2, 2) | st.booleans() | st.sampled_from([0.0, -0.0, 1.0]), max_size=3), max_size=8))
def test_dumps_repeated_lists_of_equal_values(data):
    """1, True and 1.0 (and 0.0, -0.0) are equal but render differently, so
    the per-call memo of rendered lists must keep them apart."""
    assert ser.dumps(data) == oracle(data)


def test_dumps_memo_keeps_types_and_depths_apart():
    for data in (
        [[1], [True], [1.0], [0], [False], [0.0], [-0.0]],
        [[1, "a"], [[1, "a"]], {"k": [1, "a"]}, [1, "a"]],
        [("x",), ["x"], [["x"]]],
        {1: [2], True: [2], "1": [2], 1.5: [2], None: [2]},
    ):
        assert ser.dumps(data) == oracle(data)


def test_dumps_quotes_equal_keys_of_other_types_apart():
    """Keys are quoted once per call, but 1, True, 1.0 and "1" (and 0, False,
    0.0, -0.0) are equal or alike and spelled apart in separate dicts."""
    data = [{k: [k]} for k in (1, True, 1.0, "1", 0, False, 0.0, -0.0, "1", 1)]
    assert ser.dumps(data) == oracle(data)


def test_dumps_subclasses_render_as_their_base():
    class Name(str):
        pass

    class Count(IntEnum):
        ONE = 1

    class Real(float):
        def __repr__(self):
            return "real"

    data = {
        Name("k"): [Name("v"), Count.ONE, Real(0.5)],
        Count.ONE: (Name("w"),),
        Real(2.0): [1],
        "x": [Count.ONE, 1],
        "y": [1, Count.ONE],
    }
    assert ser.dumps(data) == oracle(data)


def test_dumps_memo_is_keyed_by_object_and_depth():
    shared = [3, 1, 2]
    twin = [3, 1, 2]
    for data in (
        [shared, [shared], {"a": shared, "b": [[shared]]}, shared],
        [shared, twin, [twin, shared], {"x": twin}],
        [list(shared) for _ in range(5)] + [[list(shared)]],
    ):
        assert ser.dumps(data) == oracle(data)


def test_dumps_with_fresh_lists_from_a_dict_subclass():
    """Each items() call yields new lists; the writer must not take a dead
    list's id for a later one."""

    class Fresh(dict):
        def items(self):
            return [(k, [k, *v]) for k, v in super().items()]

    data = [Fresh(a=[1, 2], b=["x"]), Fresh(a=[2, 1], b=["y"]), {"c": Fresh(a=[1, 2])}]
    for _ in range(3):
        assert ser.dumps(data) == oracle(data)
    assert ser.dumps([Fresh({str(k): [k] for k in range(300)}) for _ in range(4)]) == oracle(
        [Fresh({str(k): [k] for k in range(300)}) for _ in range(4)]
    )


def test_dumps_renders_int_values_in_dicts_beside_shared_lists():
    """Exact ints render in place; bools, IntEnum members and big ints must
    keep json's spelling, next to lists shared at three depths and a dict
    subclass whose items() yields new ints and lists on each call."""

    class Count(IntEnum):
        ONE = 1

    class Fresh(dict):
        def items(self):
            return [(k, v * 10**30 + 1) for k, v in super().items()] + [("l", [7, "s"])]

    big = 10**40
    shared = [4, 1, 3, 2]
    subset = [1, 3]
    values = {"i": 5, "z": 0, "neg": -3, "t": True, "f": False, "e": Count.ONE, "b": big, "nb": -big}
    data = [
        {**values, "p": shared, "J": subset},
        [{"p": shared, "d": 2, "J": subset}, [{"p": shared, "d": -big, "e": Count.ONE}]],
        {"deep": {"p": shared, "J": subset, "d": True}},
        Fresh(a=1, b=-2),
        [Fresh(a=3), {"p": shared, "d": 7}],
        shared,
    ]
    for _ in range(2):
        assert ser.dumps(data) == oracle(data)


def test_dumps_renders_a_repeated_list_of_containers_each_time():
    """Only lists of ints and strs are memoized: a list holding a dict
    subclass runs its items() at every occurrence, as json.dumps does."""

    class Ticking(dict):
        ticks = 0

        def items(self):
            Ticking.ticks += 1
            return [("t", Ticking.ticks)]

    inner = [Ticking(t=0)]
    data = [inner, inner, {"k": inner}]
    Ticking.ticks = 0
    expected = oracle(data)
    Ticking.ticks = 0
    assert ser.dumps(data) == expected


@pytest.mark.parametrize(
    "data",
    [Fraction(1, 2), [1, Fraction(1)], [[1], [Fraction(1)]], {"a": {1, 2}}, [object()], {(1, 2): 0}],
)
def test_dumps_refuses_what_json_refuses(data):
    with pytest.raises(TypeError):
        oracle(data)
    with pytest.raises(TypeError):
        ser.dumps(data)


def _writer_outputs():
    label = enumerate_cells(3)[400][0]
    coords, z = sample_cell(label, 11)
    yield ser.point_to_json(z)
    yield ser.charts_to_json(label, coords)
    yield ser.label_to_json(label, 5)
    yield ser.cells_to_json(3)
    yield ser.cells_to_json(3, ParabolicSubset.of(3, []))


def test_point_files_with_the_flag_chart_as_a_read_back_as_the_sample():
    """A sampled point written as (g, ψ(g')⁻¹, g·l·ψ(g')), with the flag
    chart g as a where ``sample`` now writes g·l, reads back as the sampled
    point and classifies to its label, for every label at n ≤ 3."""
    for n in (2, 3):
        for k, (label, _) in enumerate(enumerate_cells(n)):
            coords, z = sample_cell(label, k)
            g, gp, l = chart_elements(label, coords)
            data = {
                "v": 1,
                "n": n,
                "J": sorted(label.J.J),
                "a": ser.group_to_json(g),
                "b": ser.group_to_json(gp.T.inverse()),
                "g": ser.group_to_json(g @ l @ gp.T),
            }
            back = ser.point_from_json(json.loads(json.dumps(data)))
            assert back == z, label
            assert classify(back) == label


def test_dumps_matches_json_dumps_on_writer_output():
    for data in _writer_outputs():
        assert ser.dumps(data) == oracle(data)


def test_dumps_matches_json_dumps_on_a_verify_failure_report(monkeypatch):
    monkeypatch.setattr(verify, "jacobian_rank_check", lambda label, seed: False)
    rep = verify.run_suite("dimensions", verify.VerifyConfig(n=2))
    assert len(rep.failures) == 13
    report = {"v": ser.SCHEMA_VERSION, "failures": rep.failures}
    assert ser.dumps(report) == oracle(report)


_EVERY_STRATUM = [(n, J) for n in (2, 3, 4) for J in all_parabolic_subsets(n)] + [
    (5, ParabolicSubset.of(5, [1, 2, 3, 4]))
]
_STRATUM_PARAMS = [
    pytest.param(n, J, id=f"{n}-J{{{','.join(map(str, sorted(J.J)))}}}")
    for n, J in _EVERY_STRATUM
]


@pytest.mark.parametrize(
    "n, J", [(2, None), (3, None), (4, ParabolicSubset.of(4, [2]))] + _STRATUM_PARAMS
)
def test_cells_to_json_records_equal_label_to_json(n, J):
    """Each record is ``label_to_json`` of its cell with the lists read as
    tuples."""
    assert ser.cells_to_json(n, J)["cells"] == [
        {key: tuple(x) if type(x) is list else x for key, x in ser.label_to_json(label, d).items()}
        for label, d in enumerate_cells(n, J)
    ]


def test_cells_to_json_builds_no_cell_label(monkeypatch):
    """Records come from the stratum walk: no label is built, trusted or
    checked."""

    def refuse(*args, **kwargs):
        raise AssertionError("cells_to_json built a CellLabel")

    monkeypatch.setattr(cells_mod, "_trusted_label", refuse)
    monkeypatch.setattr(cells_mod.CellLabel, "__post_init__", refuse)
    data = ser.cells_to_json(3)
    assert data["count"] == len(data["cells"]) == 685


@pytest.mark.parametrize("n, J", [(3, None), (4, ParabolicSubset.of(4, [2]))], ids=["3", "4-J{2}"])
def test_cells_to_json_records_are_untracked_ints_and_int_tuples(n, J):
    """Records hold only ints and tuples of ints, so none of them is a
    container the garbage collector tracks."""
    cells = ser.cells_to_json(n, J)["cells"]
    assert all(
        type(x) is int or (type(x) is tuple and all(type(i) is int for i in x))
        for cell in cells
        for x in cell.values()
    )
    gc.collect()
    assert not any(gc.is_tracked(cell) for cell in cells)


@pytest.mark.parametrize("n, J", [(3, None), (4, ParabolicSubset.of(4, [2]))], ids=["3", "4-J{2}"])
def test_cells_to_json_records_are_independent_and_in_key_order(n, J):
    """Records cloned from their stratum's first Bruhat pair of a length
    gap are still one dict each, keyed in record order: editing one edits
    no other, neither a record of a first pair nor one of a later pair of
    the same stratum and gap, and the next census is built afresh."""
    cells = ser.cells_to_json(n, J)["cells"]
    assert len({id(cell) for cell in cells}) == len(cells)
    assert all(list(cell) == ["J", "v", "w", "v2", "w2", "y", "y2", "dim"] for cell in cells)
    before = [dict(cell) for cell in cells]
    for k in (0, len(cells) // 2, len(cells) - 1):
        cells[k]["dim"], cells[k]["y"] = -1, ()
        assert [cell for i, cell in enumerate(cells) if cell != before[i]] == [cells[k]]
        cells[k].update(before[k])
    gaps = {}  # (J, l(w) − l(v)) → {(v, w): the index of its first record}
    for k, cell in enumerate(cells):
        gap = WeylElement(cell["w"]).length - WeylElement(cell["v"]).length
        gaps.setdefault((cell["J"], gap), {}).setdefault((cell["v"], cell["w"]), k)
    first, later = next(list(pairs.values())[:2] for pairs in gaps.values() if len(pairs) > 1)
    for k in (first, later):
        cells[k]["dim"], cells[k]["v2"] = -1, ()
    assert [i for i, cell in enumerate(cells) if cell != before[i]] == [first, later]
    for k in (first, later):
        cells[k].update(before[k])
    cells[0]["dim"] = -1
    assert ser.cells_to_json(n, J)["cells"] == before


def test_label_to_json_returns_fresh_lists():
    label = enumerate_cells(3)[0][0]
    a, b = ser.label_to_json(label), ser.label_to_json(label)
    assert a == b
    lists = [x for rec in (a, b) for x in rec.values()]
    assert len({id(x) for x in lists}) == len(lists) == 14


@pytest.mark.parametrize("n, J", [(2, None), (3, None)] + _STRATUM_PARAMS)
def test_dumps_of_a_census_matches_json_dumps(n, J):
    """The census is rendered from its strata; json.dumps reads its records.
    The streamed export, joined, is the same text."""
    data = ser.cells_to_json(n, J)
    assert ser.dumps(data) == oracle(data)
    assert "".join(ser.census_chunks(n, J)) == ser.dumps(data)


def test_census_field_text_matches_json_dumps():
    """Every census field, from a string join of its ints, is the text
    json.dumps(indent=1) writes for it at record depth: every permutation
    and every sorted J at n ≤ 5, the empty J included, under every key."""
    tuples = [p for n in range(1, 6) for p in permutations(range(1, n + 1))]
    tuples += [tuple(sorted(J.J)) for n in range(1, 6) for J in all_parabolic_subsets(n)]
    assert () in tuples
    for key in ("J", "v", "w", "v2", "w2", "y", "y2"):
        for xs in tuples:
            expected = f'"{key}": ' + json.dumps(xs, indent=1).replace("\n", "\n   ") + ",\n   "
            assert ser._field_text(key, xs) == expected, (key, xs)


def test_census_export_calls_no_json_encoder(monkeypatch):
    """The census, streamed and in one piece, is rendered without json.dumps."""

    def refuse(*args, **kwargs):
        raise AssertionError("the census export called json.dumps")

    monkeypatch.setattr(ser.json, "dumps", refuse)
    sha256 = "b369f2289fbdc0133b7032ec8cf5bc3e963864878d56bfd2fcd7962de4109dc5"
    for text in ("".join(ser.census_chunks(3)), ser.dumps(ser.cells_to_json(3))):
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "J, chunks", [(None, 34), ((), 21), ((1,), 8), ((2,), 8), ((1, 2), 3)]
)
def test_census_chunks_are_a_header_a_chunk_per_bruhat_pair_and_a_footer(J, chunks):
    """``enumerate`` streams one chunk per stratum and first Bruhat pair,
    between the header and the footer."""
    J = None if J is None else ParabolicSubset.of(3, J)
    strata = ser._census_strata(3, J)
    assert len(list(ser.census_chunks(3, J))) == chunks
    assert chunks == 2 + sum(len(pairs) for _, pairs, _, _ in strata)


def test_census_chunks_stream_each_stratum_by_bruhat_pair():
    """At n = 5 a stratum is hundreds of MB of text; the export holds one
    first Bruhat pair's records at a time."""
    tracemalloc.start()
    try:
        chunks = ser.census_chunks(5, ParabolicSubset.of(5, [1, 3]))
        assert len(list(islice(chunks, 3))) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_dumps_of_an_altered_census_takes_json_dumps(monkeypatch):
    """Only a census as ``cells_to_json`` built it is rendered from its
    strata; any change to its keys, counts or record list goes to json.dumps."""
    census_pieces = ser._census_pieces
    rendered = []

    def spy(n, count, strata):
        rendered.append((n, count, strata))
        return census_pieces(n, count, strata)

    monkeypatch.setattr(ser, "_census_pieces", spy)
    data = ser.cells_to_json(3)
    assert ser.dumps(data) == oracle(data)
    assert rendered == [(3, 685, data["cells"].strata)]
    assert rendered[0][2] is data["cells"].strata

    appended = ser.cells_to_json(3)
    appended["cells"].append(dict(appended["cells"][0]))
    recounted = {**appended, "count": len(appended["cells"])}
    altered = [
        {**data, "count": 684},
        {**data, "count": 685.0},
        {**data, "extra": 1},
        {**data, "n": True},
        {**data, "v": True},
        {key: data[key] for key in ("n", "v", "count", "cells")},
        appended,
        recounted,
        {**data, "cells": list(data["cells"])},
    ]
    rendered.clear()
    for other in altered:
        assert ser.dumps(other) == oracle(other)
    assert rendered == []
