"""A printed layer is assembled in one place: ``repro.core.kernels.layer_forward``.

Training (``LaneNetwork.forward``), Monte-Carlo evaluation
(``network_forward``) and deploy verification all run that function, so
the Eq. 1 crossbar and the circuit η step have exactly one caller in the
package.  Every module under ``src/repro/`` is parsed, not imported, so a
second assembly fails here even when nothing executes it.
"""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent


class _Callers(ast.NodeVisitor):
    """Qualified names of the functions that call ``name``."""

    def __init__(self, module: str, name: str):
        self.scope = [module]
        self.name = name
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == self.name:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def callers(name):
    found = set()
    for path in sorted(ROOT.rglob("*.py")):
        parts = path.relative_to(ROOT).with_suffix("").parts
        module = ".".join(("repro",) + (parts[:-1] if parts[-1] == "__init__" else parts))
        visitor = _Callers(module, name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= visitor.found
    return found


@pytest.mark.parametrize("kernel", ["crossbar_fwd", "circuit_eta_fwd"])
def test_layer_is_assembled_once(kernel):
    assert callers(kernel) == {"repro.core.kernels.layer_forward"}
