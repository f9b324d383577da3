"""Sweep cache safety: picklable cells, JSON-scalar dicts.

The sweep executors (:mod:`repro.sweep.executors`) dispatch cache misses
to worker processes -- the cell function pickles *by reference*, so it
must be importable at module level; a lambda or a nested closure dies at
dispatch time (and only when more than one worker is configured, which is
exactly when nobody is looking).  Cell dicts are content-addressed through
canonical JSON, so axis values and cell extras must be JSON scalars
(``str``/``int``/``float``/``bool``/``None``); richer objects belong
*inside* the cell function, reconstructed from scalar coordinates.

Two checks:

* the function handed to ``sweep_map(...)`` / ``.map_cells(...)`` /
  ``.run_missing(...)`` (the executor-layer worker entry point) must not
  be a ``lambda`` or a function defined in a nested scope of the same file;
* literal axis values in ``ParameterGrid(...)`` calls and literal keyword
  values in ``.cells(...)`` calls on module-level grids must be JSON
  scalars.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import SourceFile, Violation, rule
from repro.lint.imports import ImportTable

RULE = "cache-safety"

_SCALARS = (str, int, float, bool, type(None))


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound at module level (defs, classes, imports, assignments)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".", 1)[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names.add(name.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _nested_function_names(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function's body."""
    nested: set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return nested


def _grid_names(tree: ast.Module, imports: ImportTable) -> set[str]:
    """Module-level names assigned from a ``ParameterGrid(...)`` call."""
    names: set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _is_parameter_grid(node.value.func, imports)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_parameter_grid(func: ast.expr, imports: ImportTable) -> bool:
    dotted = imports.resolve(func)
    if dotted is not None:
        return dotted.rsplit(".", 1)[-1] == "ParameterGrid"
    return isinstance(func, ast.Name) and func.id == "ParameterGrid"


def _is_sweep_dispatch(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "sweep_map"
    if isinstance(func, ast.Attribute):
        # map_cells is the orchestrator entry; run_missing is the executor
        # layer's worker entry point -- both ship the function into worker
        # processes, so both demand module-level picklability.
        return func.attr in {"sweep_map", "map_cells", "run_missing"}
    return False


def _non_scalar_literals(value: ast.expr) -> Iterator[ast.expr]:
    """Literal elements of a (possibly nested) literal that break JSON-scalar."""
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        for element in value.elts:
            if isinstance(element, ast.Constant):
                if not isinstance(element.value, _SCALARS):
                    yield element
            elif isinstance(element, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                yield element
    elif isinstance(value, ast.Constant) and not isinstance(value.value, _SCALARS):
        yield value
    elif isinstance(value, ast.Dict):
        yield value


@rule(
    RULE,
    "sweep cell functions must be module-level; cell dicts JSON-scalar",
    scopes=("src",),
)
def check(source: SourceFile) -> Iterator[Violation]:
    tree = source.tree
    imports = ImportTable(tree)
    module_names = _module_level_names(tree)
    nested_names = _nested_function_names(tree)
    grid_names = _grid_names(tree, imports)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue

        if _is_sweep_dispatch(node.func):
            candidates = list(node.args[:1]) + [
                kw.value for kw in node.keywords if kw.arg == "func"
            ]
            for candidate in candidates:
                if isinstance(candidate, ast.Lambda):
                    yield source.violation(
                        candidate,
                        RULE,
                        "sweep cell function is a lambda; it cannot pickle "
                        "into worker processes -- define it at module level",
                    )
                elif (
                    isinstance(candidate, ast.Name)
                    and candidate.id in nested_names
                    and candidate.id not in module_names
                ):
                    yield source.violation(
                        candidate,
                        RULE,
                        f"sweep cell function {candidate.id!r} is defined in "
                        "a nested scope; it cannot pickle into worker "
                        "processes -- define it at module level",
                    )

        if _is_parameter_grid(node.func, imports):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                for bad in _non_scalar_literals(keyword.value):
                    yield source.violation(
                        bad,
                        RULE,
                        f"axis {keyword.arg!r} has a non-JSON-scalar value; "
                        "cells content-address through canonical JSON, so "
                        "axis values must be str/int/float/bool/None "
                        "(reconstruct rich objects inside the cell function)",
                    )

        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "cells"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in grid_names
        ):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                for bad in _non_scalar_literals(keyword.value):
                    yield source.violation(
                        bad,
                        RULE,
                        f"cell extra {keyword.arg!r} has a non-JSON-scalar "
                        "value; cell extras join the content-addressed cell "
                        "dict and must be str/int/float/bool/None",
                    )

