"""``repro.core`` runs on raw arrays: it imports no taped-engine package.

The pNN trains and evaluates through the hand-derived kernels of
``repro.core.grad_kernels``; ``repro.nn`` and ``repro.autograd`` serve only
the surrogate MLP.  Every module under ``src/repro/core/`` is parsed, not
imported, so a dependency fails here even when nothing executes it.
"""

import ast
from pathlib import Path

import repro.core

FORBIDDEN = ("repro.nn", "repro.autograd")
CORE = Path(repro.core.__file__).parent


def imported_names(path):
    """Every dotted module name (and ``module.name``) a file imports."""
    package = "repro.core".split(".")
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_core_imports_neither_nn_nor_autograd():
    modules = sorted(CORE.rglob("*.py"))
    assert modules
    offending = [
        f"{path.relative_to(CORE)}: {name}"
        for path in modules
        for name in imported_names(path)
        if any(name == pkg or name.startswith(pkg + ".") for pkg in FORBIDDEN)
    ]
    assert offending == []
