"""Command-line surface.

Subcommands: enumerate, sample, classify, limit, tp-check, verify.
Exit codes: 0 ok, 1 failures, 2 usage errors.  ``main`` maps every error
the library reports on bad input to exit 2 with one ``error:`` line; the
commands raise them and catch nothing but an empty cell (``sample``,
exit 1) and an unparsable ``--J``.  A reader that closes stdout early
(``tnncompact enumerate --n 4 | head``) is no usage error: ``main`` exits
1 and writes nothing to stderr.  All file output is byte-deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import serialize as ser
from .cells import CellError, EmptyCellError, classify, dimension_of, sample_cell
from .matgroup import GroupError, GroupMatrix
from .strata import StrataError, torus_limit
from .tnn import is_totally_nonneg, is_totally_positive
from .verify import SUITES, ConfigError, VerifyConfig, check_scale, run_suite
from .weyl import ParabolicSubset, WeylError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_J(text: str | None) -> list[int]:
    if not text:
        return []
    return [int(x) for x in text.split(",") if x.strip()]


def _write_or_print(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def cmd_enumerate(args) -> int:
    J = None
    if args.J is not None:
        try:
            J = ParabolicSubset.of(args.n, _parse_J(args.J))
        except (ValueError, WeylError) as e:
            print(f"error: bad --J: {e}", file=sys.stderr)
            return EXIT_USAGE
    chunks = ser.census_chunks(args.n, J)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as f:
        f.writelines(chunks)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    data = json.loads(Path(args.label_file).read_text())
    if isinstance(data, dict):
        data, n = data.get("label", data), data.get("n")
    else:
        n = None
    label = ser.label_from_json(data, n=n)
    try:
        coords, point = sample_cell(label, args.seed)
    except EmptyCellError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    payload = {
        "v": ser.SCHEMA_VERSION,
        "seed": args.seed,
        "label": ser.label_to_json(label),
        "charts": ser.charts_to_json(label, coords),
        "point": ser.point_to_json(point),
    }
    _write_or_print(ser.dumps(payload), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    data = json.loads(Path(args.point_file).read_text())
    if isinstance(data, dict):
        data = data.get("point", data)
    point = ser.point_from_json(data)
    label = classify(point)
    _write_or_print(
        ser.dumps(
            {
                "v": ser.SCHEMA_VERSION,
                "label": ser.label_to_json(label, dimension_of(label)),
            }
        ),
        args.out,
    )
    return EXIT_OK


def cmd_limit(args) -> int:
    data = json.loads(Path(args.curve_file).read_text())
    g1, c, g2 = ser.curve_from_json(data)
    z = torus_limit(g1, c, g2)
    _write_or_print(ser.dumps(ser.point_to_json(z)), args.out)
    return EXIT_OK


def cmd_tp_check(args) -> int:
    data = json.loads(Path(args.matrix_file).read_text())
    if isinstance(data, dict):
        data = data.get("m", data)
    g = GroupMatrix(ser.matrix_from_json(data))
    strict = is_totally_positive(g)
    nonneg = strict or is_totally_nonneg(g)
    _write_or_print(
        ser.dumps(
            {"v": ser.SCHEMA_VERSION, "strictly_positive": strict, "nonnegative": nonneg}
        ),
        args.out,
    )
    return EXIT_OK if strict else EXIT_FAIL


def cmd_verify(args) -> int:
    cfg = VerifyConfig(n=args.n, seeds=args.seeds, samples=args.samples)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        check_scale(name, cfg)
    reports = []
    for name in names:
        rep = run_suite(name, cfg)
        print(rep.line())
        reports.append(rep)
    failures = [{"suite": r.suite, **f} for r in reports for f in r.failures]
    if failures:
        _write_or_print(ser.dumps({"v": ser.SCHEMA_VERSION, "failures": failures}), args.out)
    return EXIT_FAIL if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tnncompact",
        description="Exact cell atlas of the totally nonnegative part of the "
        "wonderful compactification in type A",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="write the cell census as JSON")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--J", type=str, default=None, help="comma-separated subset, e.g. 1,2")
    pe.add_argument("--out", type=str, default=None)
    pe.set_defaults(fn=cmd_enumerate)

    ps = sub.add_parser("sample", help="sample a point of a labeled cell")
    ps.add_argument("--label-file", required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", type=str, default=None)
    ps.set_defaults(fn=cmd_sample)

    pc = sub.add_parser("classify", help="classify a stored point")
    pc.add_argument("--point-file", required=True)
    pc.add_argument("--out", type=str, default=None)
    pc.set_defaults(fn=cmd_classify)

    pl = sub.add_parser("limit", help="torus-curve limit of a group pair")
    pl.add_argument("--curve-file", required=True)
    pl.add_argument("--out", type=str, default=None)
    pl.set_defaults(fn=cmd_limit)

    pt = sub.add_parser("tp-check", help="exact minor positivity of a matrix")
    pt.add_argument("--matrix-file", required=True)
    pt.add_argument("--out", type=str, default=None)
    pt.set_defaults(fn=cmd_tp_check)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", choices=["all"] + sorted(SUITES))
    pv.add_argument("--n", type=int, default=3)
    pv.add_argument("--seeds", type=int, default=5)
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--out", type=str, default=None)
    pv.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout: send the exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (
        OSError, UnicodeDecodeError, json.JSONDecodeError, ser.SchemaError,
        CellError, GroupError, StrataError, ConfigError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
