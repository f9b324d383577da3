"""Kernel-purity rule: ``repro.kernels`` functions stay stateless.

The kernel layer's contract (the ``repro.kernels`` section of
``docs/architecture.md``) is that every kernel is a pure function of its
array arguments: no randomness, no module-level state, no captured mutable
context.  That keeps a kernel's output a function of its inputs alone, so
the engines that call it stay reproducible and the sweep cache, which keys
cells on inputs and source code only, stays sound.

One rule id, three checks over every module under ``repro/kernels/``
except the package ``__init__``:

* no RNG imports (``random``, ``secrets``, ``numpy.random``) -- draws
  belong in the orchestration layer, kernels only see drawn arrays;
* no function-body reads of module-level *state*: a name assigned at
  module scope may be read inside a kernel only if it is bound to a scalar
  constant (imports, functions, classes and scalar ALL-CAPS constants are
  the allowed vocabulary);
* no closures: a function nested inside a kernel must not capture the
  enclosing function's bindings (state smuggled past the argument list).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.core import SourceFile, Violation, rule

RULE = "kernel-purity"

#: Modules whose import into a kernel module breaks the RNG-free contract.
_RNG_MODULES = ("random", "secrets", "numpy.random")

#: Kernel-package files that hold no kernels.
_EXEMPT_FILES = frozenset({"__init__.py"})


def _is_kernel_module(path: str) -> bool:
    parts = Path(path).parts
    if not parts or parts[-1] in _EXEMPT_FILES:
        return False
    return any(
        parts[i : i + 2] == ("repro", "kernels") for i in range(len(parts) - 1)
    )


def _is_rng_module(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".") for name in _RNG_MODULES
    )


def _is_scalar_constant(node: ast.expr) -> bool:
    """Literal ints/floats/strings/bools/None, possibly sign-prefixed."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant)


def _stateful_globals(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level assigned names whose value is not a scalar constant."""
    stateful: dict[str, ast.stmt] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            value, targets = statement.value, statement.targets
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            value, targets = statement.value, [statement.target]
        else:
            continue
        if _is_scalar_constant(value):
            continue
        for target in targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    stateful.setdefault(name_node.id, statement)
    return stateful


def _bound_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the function binds: arguments plus assignment/loop targets."""
    args = function.args
    bound = {
        arg.arg
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        )
    }
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not function:
                bound.add(node.name)
    return bound


def _body_reads(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Name]:
    """Load-context names in the function body (decorators excluded)."""
    for statement in function.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node


@rule(
    RULE,
    "repro.kernels functions must be stateless: no RNG imports, no "
    "module-global state reads, no closures",
    scopes=("src",),
)
def check_kernel_purity(source: SourceFile) -> Iterator[Violation]:
    if not _is_kernel_module(source.path):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_rng_module(alias.name):
                    yield source.violation(
                        node,
                        RULE,
                        f"kernel module imports RNG module {alias.name!r}; "
                        "random draws belong in the orchestration layer -- "
                        "kernels only see drawn arrays",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if _is_rng_module(module) or (module == "numpy" and "random" in names):
                yield source.violation(
                    node,
                    RULE,
                    f"kernel module imports from RNG module {module!r}; "
                    "random draws belong in the orchestration layer -- "
                    "kernels only see drawn arrays",
                )

    stateful = _stateful_globals(source.tree)
    functions = [
        node
        for node in ast.walk(source.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    nested = {
        inner
        for outer in functions
        for statement in outer.body
        for inner in ast.walk(statement)
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for function in functions:
        local = _bound_names(function)
        for name in _body_reads(function):
            if name.id in stateful and name.id not in local:
                yield source.violation(
                    name,
                    RULE,
                    f"kernel {function.name!r} reads module-level state "
                    f"{name.id!r}; kernels must be pure functions of their "
                    "arguments (scalar constants and imports are fine)",
                )
        if function in nested:
            continue
        for statement in function.body:
            for inner in ast.walk(statement):
                if not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                inner_local = _bound_names(inner)
                captured = sorted(
                    {
                        name.id
                        for name in _body_reads(inner)
                        if name.id in local and name.id not in inner_local
                    }
                )
                if captured:
                    yield source.violation(
                        inner,
                        RULE,
                        f"nested function {inner.name!r} closes over "
                        f"{', '.join(repr(name) for name in captured)} from "
                        f"kernel {function.name!r}; pass state through "
                        "arguments instead",
                    )
