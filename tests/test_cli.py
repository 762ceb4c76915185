import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import generator_x, identity

from tnncompact import serialize as ser
from tnncompact import verify
from tnncompact.cells import classify, enumerate_cells, top_label
from tnncompact.cli import main
from tnncompact.matgroup import GroupError, GroupMatrix
from tnncompact.strata import StrataError, torus_limit
from tnncompact.tnn import sample_G_gt0
from tnncompact.weyl import ParabolicSubset, WeylError


def test_frac_roundtrip():
    from fractions import Fraction

    assert ser.frac_str(Fraction(-3, 7)) == "-3/7"
    assert ser.parse_frac("-3/7") == Fraction(-3, 7)
    with pytest.raises(ser.SchemaError):
        ser.parse_frac("1/0")
    assert ser.parse_frac(3) == 3
    for bad in (0.1, 1.0, None, True, [1], {"p": 1}, "0.5", "1e3", "1_000", " 1/2 ", "١", "9" * 5000):
        with pytest.raises(ser.SchemaError):
            ser.parse_frac(bad)


def test_point_json_roundtrip():
    rng = random.Random(4)
    for js in ([], [1], [1, 2]):
        J = ParabolicSubset.of(3, js)
        z = torus_limit(sample_G_gt0(3, rng), [0 if j + 1 in js else 1 for j in range(2)], sample_G_gt0(3, rng))
        back = ser.point_from_json(json.loads(json.dumps(ser.point_to_json(z))))
        assert back == z
        assert classify(back) == classify(z)


def test_label_json_roundtrip():
    for label, dim in enumerate_cells(2):
        data = ser.label_to_json(label, dim)
        assert ser.label_from_json(data) == label


def test_cells_json_schema():
    data = ser.cells_to_json(2)
    assert data["v"] == 1 and data["count"] == 13
    assert {tuple(c["J"]) for c in data["cells"]} == {(), (1,)}
    assert all("dim" in c for c in data["cells"])


def test_chart_json_schema():
    label = top_label(ParabolicSubset.of(3, [1]))
    data = ser.charts_to_json(label, [1, 2, 3, 4, 5, 6, 7])
    assert list(data) == ["flag1", "flag2", "levi_minus", "levi_torus", "levi_plus"]
    assert data["flag1"] == {"word": [1, 2], "v": [1, 2, 3], "coords": ["1/1", "2/1"]}
    assert data["flag2"] == {"word": [1, 2], "v": [1, 2, 3], "coords": ["3/1", "4/1"]}
    assert [data[k] for k in ("levi_minus", "levi_torus", "levi_plus")] == [
        ["6/1"], ["5/1", "1/1"], ["7/1"]
    ]


def test_cli_enumerate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["enumerate", "--n", "2", "--out", str(out1)]) == 0
    assert main(["enumerate", "--n", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["count"] == 13


def test_cli_enumerate_matches_golden(tmp_path):
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "cells_n2_golden.json"
    out = tmp_path / "cells.json"
    assert main(["enumerate", "--n", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_cli_enumerate_stratum_counts(tmp_path):
    out = tmp_path / "c.json"
    assert main(["enumerate", "--n", "3", "--J", "1,2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 36
    out2 = tmp_path / "d.json"
    assert main(["enumerate", "--n", "2", "--J", "", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["count"] == 9


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["--n", "3"], "b369f2289fbdc0133b7032ec8cf5bc3e963864878d56bfd2fcd7962de4109dc5"),
        (["--n", "4"], "de9095a769e115f084ea060c81d57904c726f77a4759c7ebc26747099566ed84"),
        (
            ["--n", "5", "--J", "1,2,3,4"],
            "42e8f15812922908c1c72be12d66bf8d23e7c2ec6115e386420dca3f88afdf25",
        ),
    ],
    ids=["n3", "n4", "n5-J1234"],
)
def test_cli_enumerate_bytes_are_pinned(args, sha256, tmp_path):
    import hashlib

    out = tmp_path / "cells.json"
    assert main(["enumerate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_cli_enumerate_streams_without_records(monkeypatch, tmp_path, capsys):
    """The export is written stratum by stratum from the walk, to a file
    and to stdout, with no record dicts."""
    import hashlib

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built the census records")

    monkeypatch.setattr(ser, "cells_to_json", refuse)
    sha256 = "de9095a769e115f084ea060c81d57904c726f77a4759c7ebc26747099566ed84"
    out = tmp_path / "cells.json"
    assert main(["enumerate", "--n", "4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    capsys.readouterr()
    assert main(["enumerate", "--n", "4"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_cli_enumerate_usage_errors(tmp_path):
    assert main(["enumerate", "--n", "9"]) == 2
    assert main(["enumerate", "--n", "3", "--J", "7"]) == 2
    out = tmp_path / "cells.json"
    assert main(["enumerate", "--n", "6", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_sample_classify_roundtrip(tmp_path):
    label_file = tmp_path / "label.json"
    label = top_label(ParabolicSubset.of(3, [1]))
    label_file.write_text(json.dumps({"n": 3, "label": ser.label_to_json(label)}))
    point_file = tmp_path / "point.json"
    assert main(
        ["sample", "--label-file", str(label_file), "--seed", "5", "--out", str(point_file)]
    ) == 0
    data = json.loads(point_file.read_text())
    assert data["seed"] == 5 and "charts" in data
    out_label = tmp_path / "classified.json"
    assert main(["classify", "--point-file", str(point_file), "--out", str(out_label)]) == 0
    got = json.loads(out_label.read_text())["label"]
    assert ser.label_from_json(got) == label
    assert got["dim"] == 7


def test_cli_sample_bytes_are_pinned(tmp_path, capsys):
    """The bytes ``sample`` prints at seeds 0 and 7 for every n = 2 label and
    every 100th n = 3 label, pinned by SHA-256: the charts block and the
    point must stay byte for byte."""
    import hashlib

    labels = [(n, label) for n, step in ((2, 1), (3, 100)) for label, _ in enumerate_cells(n)[::step]]
    assert len(labels) == 20
    label_file = tmp_path / "label.json"
    digest = hashlib.sha256()
    for n, label in labels:
        label_file.write_text(json.dumps({"n": n, "label": ser.label_to_json(label)}))
        for seed in ("0", "7"):
            assert main(["sample", "--label-file", str(label_file), "--seed", seed]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "bff03aeaa9a0031af7dca5772485b344bb3910deb03adf485ea6f8130c773cf8"


def test_cli_sample_empty_label(tmp_path):
    label_file = tmp_path / "label.json"
    label_file.write_text(
        json.dumps(
            {
                "n": 3,
                "label": {
                    "J": [1],
                    "v": [2, 1, 3],
                    "w": [2, 3, 1],
                    "v2": [1, 2, 3],
                    "w2": [1, 2, 3],
                    "y": [1, 2, 3],
                    "y2": [1, 2, 3],
                },
            }
        )
    )
    assert main(["sample", "--label-file", str(label_file)]) == 1


def test_cli_limit_and_tp_check(tmp_path):
    rng = random.Random(6)
    g1, g2 = sample_G_gt0(2, rng), sample_G_gt0(2, rng)
    curve = tmp_path / "curve.json"
    curve.write_text(
        json.dumps(
            {
                "v": 1,
                "g1": ser.group_to_json(g1),
                "c": [1],
                "g2": ser.group_to_json(g2),
            }
        )
    )
    out = tmp_path / "limit.json"
    assert main(["limit", "--curve-file", str(curve), "--out", str(out)]) == 0
    z = ser.point_from_json(json.loads(out.read_text()))
    assert z == torus_limit(g1, (1,), g2)

    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(ser.group_to_json(g1)))
    assert main(["tp-check", "--matrix-file", str(mfile)]) == 0
    mfile.write_text(json.dumps(ser.group_to_json(GroupMatrix(identity(2)))))
    assert main(["tp-check", "--matrix-file", str(mfile)]) == 1


def test_cli_tp_check_of_a_one_by_one_matrix(tmp_path):
    """[[1]] is the one group element at n = 1, and it has no minor but
    itself: tp-check calls it strictly positive."""
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([["1"]]))
    assert main(["tp-check", "--matrix-file", str(mfile)]) == 0


def test_cli_verify_all_goes_on_past_a_suite_that_raises(monkeypatch, capsys):
    """A check that raises is one failed case: every suite still prints
    its status line, and dimensions FAILs on its 13 raising rank checks
    while its merged-step control passes; nothing reaches stderr."""

    def _raise(label, seed):
        raise WeylError("forced")

    monkeypatch.setattr(verify, "jacobian_rank_check", _raise)
    assert main(["verify", "all", "--n", "2"]) == 1
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line.startswith("[")]
    assert len(lines) == len(verify.SUITES) == 10
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] dimensions: 14 cases, 13 failures")
    assert '"error": "WeylError: forced"' in captured.out
    assert captured.err == ""


def test_cli_verify_single_suite(capsys):
    assert main(["verify", "census", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] census" in out


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_cli_verify_all_out_names_the_suite_of_each_failure(to_file, tmp_path, monkeypatch, capsys):
    """`verify all` writes each failure as {"suite": name, **witness}: to
    --out when given, else to stdout after the status lines."""
    first, _ = enumerate_cells(2)[0]
    monkeypatch.setattr(verify, "jacobian_rank_check", lambda label, seed: label != first)
    out = tmp_path / "failures.json"
    argv = ["verify", "all", "--n", "2", "--seeds", "1", "--samples", "1"]
    assert main(argv + ["--out", str(out)] if to_file else argv) == 1
    printed = capsys.readouterr().out
    lines, _, document = printed.partition("{")
    assert len(lines.splitlines()) == len(verify.SUITES)
    assert "[FAIL] dimensions: 14 cases, 1 failures" in lines
    if to_file:
        assert document == ""
        written = out.read_text()
    else:
        assert not out.exists()
        written = "{" + document
    assert json.loads(written) == {
        "v": ser.SCHEMA_VERSION,
        "failures": [
            {
                "suite": "dimensions",
                "n": 2,
                "label": ser.label_to_json(first),
                "seed": verify.BASE_SEED,
                "reason": "jacobian rank differs from cell dimension",
            }
        ],
    }


def test_cli_bad_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--point-file", str(bad)]) == 2


def test_cli_classify_refuses_an_empty_label(tmp_path, capsys):
    """A point whose relative positions form an empty label (v' = 2143
    outside W^J for J = {3}): exit 2 with one error line."""
    from tnncompact.cells import CellLabel, sample_cell
    from tnncompact.matgroup import identity_g
    from tnncompact.strata import act
    from tnncompact.weyl import WeylElement

    perms = ((1, 3, 2, 4), (2, 3, 1, 4), (2, 1, 3, 4), (4, 1, 2, 3), (1, 2, 3, 4), (1, 2, 4, 3))
    label = CellLabel(ParabolicSubset.of(4, [3]), *map(WeylElement, perms))
    z = act(identity_g(4), generator_x(4, 2, 3), sample_cell(label, 844036)[1])
    point_file = tmp_path / "point.json"
    point_file.write_text(ser.dumps(ser.point_to_json(z)))
    assert_usage_error(main(["classify", "--point-file", str(point_file)]), capsys)
    assert capsys.readouterr().out == ""


IDENTITY_2 = [["1", "0"], ["0", "1"]]
IDENTITY_3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
SWAP_2 = [["0", "-1"], ["1", "0"]]
BAD_INPUTS = {
    "tp-check-det-not-one": ("tp-check", "--matrix-file", [["2", "0"], ["0", "1"]]),
    "tp-check-not-square": ("tp-check", "--matrix-file", [["1", "0", "0"], ["0", "1", "0"]]),
    "tp-check-ragged-rows": ("tp-check", "--matrix-file", [["1", "0"], ["0"]]),
    "classify-det-not-one": (
        "classify",
        "--point-file",
        {"v": 1, "n": 2, "J": [], "a": [["2", "0"], ["0", "1"]], "b": IDENTITY_2, "g": IDENTITY_2},
    ),
    "classify-not-opposed": (
        "classify",
        "--point-file",
        {"v": 1, "n": 2, "J": [], "a": IDENTITY_2, "b": IDENTITY_2, "g": SWAP_2},
    ),
    "limit-negative-exponent": (
        "limit",
        "--curve-file",
        {"v": 1, "g1": IDENTITY_2, "c": [-1], "g2": IDENTITY_2},
    ),
    "tp-check-row-not-a-list": ("tp-check", "--matrix-file", [[1, 0], 5]),
    "tp-check-null-entry": ("tp-check", "--matrix-file", [[1, None], [0, 1]]),
    "tp-check-float-entry": ("tp-check", "--matrix-file", [[0.1, 0], [0, 10]]),
    "tp-check-exact-float-entry": ("tp-check", "--matrix-file", [[1, 0.5], [0, 1]]),
    "classify-top-level-list": ("classify", "--point-file", [1, 2]),
    "classify-missing-n": (
        "classify",
        "--point-file",
        {"v": 1, "J": [], "a": IDENTITY_2, "b": IDENTITY_2, "g": IDENTITY_2},
    ),
    "classify-J-out-of-range": (
        "classify",
        "--point-file",
        {"v": 1, "n": 3, "J": [7], "a": IDENTITY_3, "b": IDENTITY_3, "g": IDENTITY_3},
    ),
    "classify-sizes-differ": (
        "classify",
        "--point-file",
        {"v": 1, "n": 2, "J": [], "a": IDENTITY_2, "b": IDENTITY_3, "g": IDENTITY_2},
    ),
    "limit-sizes-differ": (
        "limit",
        "--curve-file",
        {"v": 1, "g1": IDENTITY_2, "c": [1], "g2": IDENTITY_3},
    ),
    "limit-exponents-not-a-list": (
        "limit",
        "--curve-file",
        {"v": 1, "g1": IDENTITY_2, "c": "ab", "g2": IDENTITY_2},
    ),
    "limit-float-exponent": (
        "limit",
        "--curve-file",
        {"v": 1, "g1": IDENTITY_2, "c": [1.7], "g2": IDENTITY_2},
    ),
    "sample-label-not-an-object": ("sample", "--label-file", [1, 2]),
    "sample-label-sizes-differ": (
        "sample",
        "--label-file",
        {"J": [], "v": [1, 2], "w": [1, 2], "v2": [1], "w2": [1, 2],
         "y": [1, 2], "y2": [1, 2]},
    ),
}


def assert_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_is_one_line_usage_error(case, tmp_path, capsys):
    command, flag, payload = BAD_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert_usage_error(main([command, flag, str(path)]), capsys)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("classify", "--point-file"),
        ("sample", "--label-file"),
        ("limit", "--curve-file"),
        ("tp-check", "--matrix-file"),
    ],
)
def test_cli_non_utf8_input_is_one_line_usage_error(command, flag, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    assert_usage_error(main([command, flag, str(path)]), capsys)


def test_cli_sample_rejects_negative_seed(tmp_path, capsys):
    label_file = tmp_path / "label.json"
    label = top_label(ParabolicSubset.of(2, [1]))
    label_file.write_text(json.dumps({"n": 2, "label": ser.label_to_json(label)}))
    assert_usage_error(main(["sample", "--label-file", str(label_file), "--seed", "-5"]), capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--n", "1"],
        ["limits", "--n", "7"],
        ["all", "--n", "0"],
        ["all", "--n", "6"],
        ["dimensions", "--n", "2", "--seeds", "-1"],
        ["dimensions", "--n", "2", "--seeds", "0"],
        ["census", "--n", "2", "--samples", "0"],
    ],
    ids=" ".join,
)
def test_cli_verify_rejects_scales_out_of_range(argv, capsys):
    assert_usage_error(main(["verify", *argv]), capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "2", "--seeds", "0", "--samples", "0"],
        ["--n", "1"],
        ["--seeds", "-1"],
        ["--samples", "0"],
    ],
    ids=" ".join,
)
def test_verification_script_rejects_scales_out_of_range(argv, capsys):
    # `verify all` is the whole verification battery: it refuses a bad scale
    # before any suite runs, whatever the other options are left at.
    assert_usage_error(main(["verify", "all", *argv]), capsys)
    assert capsys.readouterr().out == ""


ROOT = Path(__file__).resolve().parent.parent
CENSUS_SCRIPT = ROOT / "scripts" / "run_census.py"
MUTANTS_SCRIPT = ROOT / "scripts" / "mutants.py"


def _load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_verify_exits_2_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["verify", "all", "--n", "2", "--seeds", "0", "--samples", "0"]
    done = subprocess.run(
        [sys.executable, "-m", "tnncompact", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_cli_reader_closing_stdout_is_no_usage_error():
    """A reader that stops after 10 bytes of the n = 3 census (176 kB, more
    than a pipe holds) closes stdout under the writer: exit 1 and nothing
    on stderr, no `error:` line and no exit-flush complaint."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tnncompact", "enumerate", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("suite", ["all", "census", "dimensions", "roundtrip", "emptiness"])
def test_cli_verify_refuses_label_enumeration_at_n5(suite, capsys, monkeypatch):
    """The suites that enumerate every label (43.4M at n = 5) refuse n = 5
    before any suite runs."""
    from tnncompact import verify

    for name in ("enumerate_cells", "_empty_labels", "_brute_labels"):
        monkeypatch.setattr(verify, name, lambda *_: pytest.fail("enumerated"))
    assert_usage_error(main(["verify", suite, "--n", "5", "--seeds", "1", "--samples", "1"]), capsys)
    assert capsys.readouterr().out == ""


def test_cli_verify_census_n5_exits_2_at_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "tnncompact", "verify", "census", "--n", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_cli_verify_monoid_n5_passes(capsys):
    assert main(["verify", "monoid", "--n", "5", "--seeds", "1", "--samples", "1"]) == 0
    assert capsys.readouterr().out.startswith("[PASS] monoid: ")


@pytest.mark.parametrize("nmax", ["1", "5", "6", "-1"])
def test_census_script_checks_nmax_before_enumerating(nmax, monkeypatch, capsys):
    script = _load_script(CENSUS_SCRIPT)

    def no_enumeration(n):
        raise AssertionError(f"enumerated n={n}")

    monkeypatch.setattr(script, "enumerate_cells", no_enumeration)
    assert_usage_error(script.main(["--nmax", nmax]), capsys)
    assert capsys.readouterr().out == ""


def test_census_script_prints_the_census(capsys):
    assert _load_script(CENSUS_SCRIPT).main(["--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=2: 13 cells, alternating sum 1\n")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
READERS = {
    "point": (
        ser.point_from_json,
        {"v": 1, "n": 2, "J": [], "a": IDENTITY_2, "b": IDENTITY_2, "g": IDENTITY_2},
    ),
    "curve": (
        ser.curve_from_json,
        {"v": 1, "g1": IDENTITY_2, "c": [1], "g2": IDENTITY_2},
    ),
    "label": (
        ser.label_from_json,
        ser.label_to_json(top_label(ParabolicSubset.of(2, []))),
    ),
}


@settings(max_examples=150)
@given(st.sampled_from(sorted(READERS)), st.data())
def test_readers_raise_only_reported_errors(kind, data):
    """A valid record with one field replaced (or dropped, or nested one
    level down) either parses or fails with an error the CLI reports."""
    reader, valid = READERS[kind]
    record = dict(valid)
    key = data.draw(st.sampled_from(sorted(record)))
    choice = data.draw(st.sampled_from(["replace", "drop", "entry"]))
    if choice == "drop":
        del record[key]
    elif choice == "entry" and isinstance(record[key], list) and record[key]:
        items = list(record[key])
        items[data.draw(st.integers(0, len(items) - 1))] = data.draw(json_values)
        record[key] = items
    else:
        record[key] = data.draw(json_values)
    try:
        reader(record)
    except (ser.SchemaError, GroupError, StrataError):
        pass


def test_mutant_catalog_entries_each_edit_one_line_once():
    """Every catalog entry's text is one line that occurs exactly once in
    its module, so a refactor that breaks an entry fails here, not only
    when the script runs."""
    mutants = _load_script(MUTANTS_SCRIPT)
    assert len(mutants.MUTANTS) == 24
    for name, (module, old, new) in mutants.MUTANTS.items():
        text = (ROOT / "src" / "tnncompact" / module).read_text()
        assert text.count(old) == 1 and "\n" not in old + new and old != new, name


def test_mutant_catalog_entry_fails_its_suite():
    """The catalog's mr_evaluate mutant, applied to a copy of src/, makes
    `verify marsh-rietsch --n 2` exit 1 on a [FAIL] line, not a traceback."""
    mutants = _load_script(MUTANTS_SCRIPT)
    got = mutants.run_mutant(
        "mr_evaluate accepts a zero coordinate", ("verify", "marsh-rietsch", "--n", "2")
    )
    assert got == {"exit": 1, "failed": ["marsh-rietsch"], "traceback": False}


def test_mutant_catalog_full_rank_entry_fails_dimensions():
    """The catalog's always-True full-rank decision, applied to a copy of
    src/, fails the one merged-step control of `verify dimensions --n 2`."""
    mutants = _load_script(MUTANTS_SCRIPT)
    got = mutants.run_mutant(
        "the full-rank decision always returns True", ("verify", "dimensions", "--n", "2")
    )
    assert got == {"exit": 1, "failed": ["dimensions"], "traceback": False}
