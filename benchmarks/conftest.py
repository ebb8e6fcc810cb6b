"""Shared benchmark fixtures.

The benchmark suite regenerates every table and figure of the paper.  The
experiment budget is selected with ``REPRO_BENCH_PROFILE``
(``smoke`` default | ``fast`` | ``paper``); rendered outputs are written to
``artifacts/bench_outputs/`` so the regenerated tables can be inspected
after the run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import default_artifacts_dir, get_default_bundle
from repro.datasets import DATASET_NAMES
from repro.experiments import profile_from_env, run_table2_parallel


def pytest_configure(config):
    config.addinivalue_line("markers", "bench_heavy: long-running regeneration bench")


@pytest.fixture(scope="session")
def profile():
    return profile_from_env(default="smoke")


@pytest.fixture(scope="session")
def bundle():
    """The shared NN surrogate bundle (cached on disk after first build)."""
    return get_default_bundle()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    path = default_artifacts_dir() / "bench_outputs"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def table2_results(profile, bundle):
    """Run the full Table-II grid once per session at the selected profile."""
    return run_table2_parallel(list(DATASET_NAMES), profile, surrogates=bundle, workers=1)


def save_and_print(output_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the terminal."""
    (output_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)
