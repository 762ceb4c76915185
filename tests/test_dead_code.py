"""A guard against dead code: every module-level function and class in the
package, private ones included, and every public method has a caller in
the package, the CLI or ``scripts/``.

Re-exports in ``__init__.py`` do not count as callers.  Two kinds of
definition are exempt: those that ``BENCHMARK.json`` names as per-layer
metrics (read from the file, so that retiring a metric exposes its
function), and the oracle constructors below.  The definitions that only
a metric keeps are pinned below, so that a change to the metrics shows
what it frees.

Callers are matched by bare name, so a definition counts as called when
anything of the same name is: an uncalled method that shares its name
with a called function or method of another class is not caught.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tnncompact"

# Constructors that only the test oracles call.  Their module stays while
# BENCHMARK.json names per-layer metrics in it (dual.*).
ORACLE_CONSTRUCTORS = {
    "dual.Dual.const",  # the Dual chart's constants and variables
    "dual.Dual.var",
}

# Definitions with no caller that a BENCHMARK.json metric alone keeps.
METRIC_ONLY = {
    "dual.dmat_compound",
    "dual.dmat_mul",
    "exterior.stratum_indicator",
    "laurent.lmat_det",
    "linalg.minor",
    "linalg.span_intersection",
    "matgroup.pi_factor",
    "serialize.cells_to_json",
    "tnn.is_tnn_matrix",
}


def _names_used(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _metric_functions() -> set[str]:
    """"module.function" for each per-layer metric "module.function.stat"."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {metric["name"].rsplit(".", 1)[0] for metric in per_layer}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) for every module-level function and class and
    every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def uncalled_definitions(exempt: set[str]) -> list[str]:
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in callers}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, node in _definitions(path.stem, tree):
            if qualified in exempt:
                continue
            # a definition's references to itself do not make it called
            if used[node.name] == _names_used(node)[node.name]:
                dead.append(qualified)
    return dead


def test_every_public_function_has_a_caller():
    assert uncalled_definitions(_metric_functions() | ORACLE_CONSTRUCTORS) == []


def test_the_benchmark_metrics_alone_keep_these_definitions():
    assert sorted(uncalled_definitions(ORACLE_CONSTRUCTORS)) == sorted(METRIC_ONLY)


def test_every_allowlist_entry_names_a_definition():
    """A stale entry of the allowlist would exempt nothing: each must still
    name a definition in the package."""
    defined = {
        qualified
        for path in PACKAGE.glob("*.py")
        for qualified, _ in _definitions(path.stem, ast.parse(path.read_text()))
    }
    assert sorted(ORACLE_CONSTRUCTORS - defined) == []
