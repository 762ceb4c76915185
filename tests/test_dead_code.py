"""A guard against dead code: every module-level function and class in the
package, private ones included, and every public method has a caller in
the package, the CLI or ``scripts/``.

Re-exports in ``__init__.py`` do not count as callers.  Two kinds of
definition are exempt: those that ``BENCHMARK.json`` names as per-layer
metrics (read from the file, so that retiring a metric exposes its
function), and the oracle constructors below.  The definitions that only
a metric keeps are pinned below, so that a change to the metrics shows
what it frees.

Callers are matched by name, leaving out a definition's uses of its own
name inside its body.  A module-level function or class counts as called
when its name is used at all, bare or as an attribute.  A public method
counts as called only when its name is used as an attribute (``x.name``):
a local variable or function that shares a method's name does not keep
the method, though a call of a same-named method of another class still
does.
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
    "laurent.lmat_compound",
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


def _attributes_used(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


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
    attributes = sum((_attributes_used(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, node in _definitions(path.stem, tree):
            if qualified in exempt:
                continue
            if qualified.count(".") == 2:  # a method is reached as x.name
                uses, total = _attributes_used, attributes
            else:
                uses, total = _names_used, used
            # a definition's references to itself do not make it called
            if total[node.name] == uses(node)[node.name]:
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
