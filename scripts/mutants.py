"""The mutant catalog: one-line faults that ``tnncompact verify all`` must catch.

Each mutant is an exact-string edit of one module.  For each, the script
copies ``src/`` to a temporary directory, applies that edit alone, runs

    tnncompact verify all --n 3 --seeds 2 --samples 40

on the copy and prints, as JSON, ``{mutant: {"exit", "failed",
"traceback"}}``: the exit code, the suites that printed a ``[FAIL]`` line,
and whether stderr holds a traceback.  A caught mutant exits 1 with at
least one failed suite and no traceback.  Standard library only:

    python3 scripts/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERIFY = ("verify", "all", "--n", "3", "--seeds", "2", "--samples", "40")

# name -> (module under src/tnncompact, exact text, replacement); each
# text occurs exactly once in its module
MUTANTS = {
    "the TP ladder accepts zero minors": (
        "tnn.py",
        "if least < 0 or (strict and least == 0):",
        "if least < 0:",
    ),
    "in_Uplus_gt0 skips its minor test": (
        "tnn.py",
        "return _minors_positive(M, strict=False) and bruhat_cell(u.T) == longest_w(u.n)",
        "return bruhat_cell(u.T) == longest_w(u.n)",
    ),
    "mr_evaluate accepts a zero coordinate": (
        "tnn.py",
        "if any(c <= 0 for c in coords):",
        "if any(c < 0 for c in coords):",
    ),
    "bruhat_leq skips its last prefix": (
        "weyl.py",
        "zip(v.perm[:-1], w.perm[:-1])",
        "zip(v.perm[:-2], w.perm[:-2])",
    ),
    "the kept positive subexpression ignores v": (
        "weyl.py",
        "    key = v.perm",
        "    key = len(v.perm)",
    ),
    "dimension_of adds |J| twice": ("cells.py", "+ len(J.J)", "+ 2 * len(J.J)"),
    "the full-rank decision always returns True": (
        "cells.py",
        "    return rank == d",
        "    return True",
    ),
    "the full-rank decision accepts rank ≥ d − 1": (
        "cells.py",
        "    return rank == d",
        "    return rank >= d - 1",
    ),
    "associated_borel drops J.min_rep": (
        "matgroup.py",
        "u = J.min_rep(w.inverse())",
        "u = w.inverse()",
    ),
    "the point key keeps only J": (
        "strata.py",
        "return (self.J, tuple(map(proj_key, self._images)))",
        "return (self.J,)",
    ),
    "embedding_data refuses every stratum with a nonempty complement": (
        "exterior.py",
        "if len(complement) > 1:",
        "if len(complement) > 0:",
    ),
    "proj_key skips the gcd division": (
        "exterior.py",
        "g = gcd(*(x for row in M for x in row))",
        "g = 1",
    ),
    "proj_key skips the sign step": ("exterior.py", "        g = -g", "        pass"),
    "positive_retraction drops its membership check": (
        "strata.py",
        "if not membership_Zgt0(out):",
        "if False:",
    ),
    "strictly_signed accepts zeros": (
        "exterior.py",
        "return all(x > 0 for x in entries) or all(x < 0 for x in entries)",
        "return all(x >= 0 for x in entries) or all(x <= 0 for x in entries)",
    ),
    "act forgets to invert h2": ("strata.py", "z.g2 @ h2.inverse())", "z.g2 @ h2)"),
    "positive_retraction acts on the left only": (
        "strata.py",
        "out = CompactPoint(z.J, g1 @ z.g1, z.g2 @ g2)",
        "out = CompactPoint(z.J, g1 @ z.g1, z.g2)",
    ),
    "membership_Zgt0 returns True": (
        "strata.py",
        "return all(strictly_signed(m) for m in fundamental_tuple(z))",
        "return True",
    ),
    "membership_Zgt0 reads degree 1 only": (
        "strata.py",
        "return all(strictly_signed(m) for m in fundamental_tuple(z))",
        "return all(strictly_signed(m) for m in fundamental_tuple(z)[:1])",
    ),
    "psibar does not swap g1 and g2": (
        "strata.py",
        "return CompactPoint(z.J, z.g2.T, z.g1.T)",
        "return CompactPoint(z.J, z.g1.T, z.g2.T)",
    ),
    "classify swaps y and y′": (
        "cells.py",
        "label = CellLabel(J, v, w, vp, wp, y, yp)",
        "label = CellLabel(J, v, w, vp, wp, yp, y)",
    ),
    "torus_limit transposes g2": (
        "strata.py",
        "return CompactPoint(J, g1, g2)",
        "return CompactPoint(J, g1, g2.T)",
    ),
    "the kept tuple is computed for J = I": (
        "strata.py",
        "tuple(_limit_images(self.J, self.g1.M, self.g2.M))",
        "tuple(_limit_images(ParabolicSubset.of(self.n, range(1, self.n)), self.g1.M, self.g2.M))",
    ),
    "the kept ladder drops its alternating sign": (
        "exterior.py",
        "((s[j] - 1) * n + n * n * ((j + k) % 2 == 0), below[s[:j] + s[j + 1 :]])",
        "((s[j] - 1) * n, below[s[:j] + s[j + 1 :]])",
    ),
    # Left out as equivalent: the point key without J.  A point's
    # fundamental tuple determines its stratum (its degree-j entry has rank
    # at least 2 exactly when j ∈ J), so equal tuples already mean equal J.
}


def run_mutant(name: str, argv=VERIFY) -> dict:
    """Run ``tnncompact *argv`` on a copy of src/ with the named edit."""
    module, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "tnncompact" / module
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"mutant {name!r}: {old!r} occurs {text.count(old)} times in {module}")
        path.write_text(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "tnncompact", *argv],
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
    failed = [
        line[len("[FAIL] "):].split(":")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("[FAIL] ")
    ]
    return {"exit": proc.returncode, "failed": failed, "traceback": "Traceback" in proc.stderr}


def main() -> int:
    print(json.dumps({name: run_mutant(name) for name in MUTANTS}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
