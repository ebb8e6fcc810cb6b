"""The examples import cleanly and expose a main(); the quickstart runs."""

import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@contextmanager
def example_module(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports_and_has_main(path):
    with example_module(path) as module:
        assert callable(getattr(module, "main", None)), f"{path.name} lacks main()"
        assert module.__doc__, f"{path.name} lacks a docstring"


def test_at_least_four_examples_ship():
    assert len(EXAMPLES) >= 4


def test_quickstart_runs_fast(monkeypatch, capsys):
    """``quickstart.py --fast`` trains, evaluates and prints its design."""
    monkeypatch.setattr(sys, "argv", ["quickstart.py", "--fast"])
    with example_module(EXAMPLES_DIR / "quickstart.py") as module:
        module.main()
    out = capsys.readouterr().out
    assert "pNN topology 4-3-3, 61 learnable parameters" in out
    assert "test accuracy under 10% variation" in out
    assert "--- printable design ---" in out
