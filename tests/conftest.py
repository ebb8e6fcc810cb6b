"""Shared fixtures for the test suite.

Heavy artifacts (circuit-simulation datasets, trained surrogates) are built
once per session at reduced scale so individual tests stay fast while still
exercising the genuine pipeline.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.spice import compile_netlist, solve_dc_batch
from repro.surrogate.analytic import AnalyticSurrogate
from repro.surrogate.dataset_builder import build_surrogate_dataset
from repro.surrogate.model import TINY_LAYER_WIDTHS
from repro.surrogate.pipeline import CircuitSurrogate, SurrogateBundle
from repro.surrogate.design_space import DESIGN_SPACE
from repro.surrogate.training import train_surrogate


def central_difference(func, x, step=1e-6):
    """Central-difference gradient of the scalar ``func(x)`` w.r.t. array ``x``."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, grad_flat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = float(func(x))
        flat[i] = original - step
        down = float(func(x))
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * step)
    return grad


@pytest.fixture(scope="session")
def numeric_grad():
    """The :func:`central_difference` helper, for finite-difference checks."""
    return central_difference


def recorded_state(pnn):
    """A pNN's raw arrays, copied, under the names the recordings use.

    The golden files store each layer's θ, activation 𝔴 and negation 𝔴
    as ``layer{i}.theta``, ``layer{i}.activation.w_raw`` and
    ``layer{i}.negation.w_raw``.
    """
    state = {}
    for i, layer in enumerate(pnn.layers):
        state[f"layer{i}.theta"] = layer.theta.copy()
        state[f"layer{i}.activation.w_raw"] = layer.w_act.copy()
        state[f"layer{i}.negation.w_raw"] = layer.w_neg.copy()
    return state


@pytest.fixture(scope="session")
def pnn_state():
    """The :func:`recorded_state` helper, for tests against recordings."""
    return recorded_state


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


def package_callers(name):
    """Every function under ``src/repro`` that calls ``name``, parsed, not imported."""
    root = Path(repro.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(("repro",) + (parts[:-1] if parts[-1] == "__init__" else parts))
        visitor = _Callers(module, name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= visitor.found
    return found


@pytest.fixture(scope="session")
def callers():
    """The :func:`package_callers` helper, for one-implementation guards."""
    return package_callers


def solve_netlist(netlist, initial=None):
    """One netlist's DC operating point: a one-lane ``solve_dc_batch``.

    Asserts that the lane converged; read values as ``op.voltage(node)[0]``.
    """
    solution = solve_dc_batch(compile_netlist(netlist), initial=initial, batch_size=1)
    assert solution.converged[0], "the DC solve did not converge"
    return solution


@pytest.fixture(scope="session")
def solve_one():
    """The :func:`solve_netlist` helper, for single-netlist checks."""
    return solve_netlist


def load_hex_golden(relative_path):
    """A golden JSON file under ``tests/``, keyed as stored.

    Array entries are stored as ``float.hex`` with their shape and decode
    to float64 arrays; other entries (counts, flags, sha256 digests) are
    returned as stored.
    """
    path = Path(__file__).parent / relative_path
    decoded = {}
    for key, value in json.loads(path.read_text()).items():
        if isinstance(value, dict) and "hex" in value:
            flat = np.array([float.fromhex(h) for h in value["hex"]], dtype=np.float64)
            value = flat.reshape(value["shape"])
        decoded[key] = value
    return decoded


@pytest.fixture(scope="session")
def characterization_reference():
    """Recorded characterization values (:func:`load_hex_golden`).

    The recipe for every entry is in the docstring of
    ``tests/surrogate/test_characterization_reference.py``.
    """
    return load_hex_golden("surrogate/golden/characterization_reference.json")


@pytest.fixture(scope="session")
def scalar_solver_reference():
    """Recorded one-point DC solver outputs (:func:`load_hex_golden`).

    The recipe for every entry is in the docstring of
    ``tests/spice/test_plan_batch.py``.
    """
    return load_hex_golden("spice/golden/scalar_solver_reference.json")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def analytic_surrogates():
    """Fast differentiable surrogate pair (no training needed)."""
    return (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


@pytest.fixture(scope="session")
def ptanh_dataset():
    """A small but real simulated (ω, η) dataset for the ptanh circuit."""
    return build_surrogate_dataset("ptanh", n_points=96, sweep_points=21, seed=3)


@pytest.fixture(scope="session")
def negweight_dataset():
    return build_surrogate_dataset("negweight", n_points=96, sweep_points=21, seed=3)


@pytest.fixture(scope="session")
def tiny_bundle(ptanh_dataset, negweight_dataset):
    """A genuinely-trained (small) NN surrogate bundle."""
    surrogates = {}
    for dataset in (ptanh_dataset, negweight_dataset):
        result = train_surrogate(
            dataset, widths=TINY_LAYER_WIDTHS, max_epochs=300, patience=100, seed=0
        )
        surrogates[dataset.kind] = CircuitSurrogate(
            model=result.model,
            input_normalizer=result.input_normalizer,
            eta_normalizer=result.eta_normalizer,
            kind=dataset.kind,
            test_mse=result.test_mse,
        )
    return SurrogateBundle(
        ptanh=surrogates["ptanh"], negweight=surrogates["negweight"], space=DESIGN_SPACE
    )


@pytest.fixture(scope="session")
def blob_data():
    """A small, well-separated 2-class problem in the 0..1 V input range."""
    rng = np.random.default_rng(0)
    n = 60
    x0 = rng.normal([0.3, 0.3], 0.07, size=(n, 2))
    x1 = rng.normal([0.7, 0.7], 0.07, size=(n, 2))
    x = np.clip(np.vstack([x0, x1]), 0.0, 1.0)
    y = np.r_[np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    return x[:80], y[:80], x[80:], y[80:]
