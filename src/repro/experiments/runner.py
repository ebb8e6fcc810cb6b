"""Training/evaluation runner implementing the Sec. IV protocol.

For each (dataset, setup) cell:

1. train one pNN per random seed — nominal setups train once with ϵ = 0,
   variation-aware setups train separately per test ϵ (the paper tests VA
   circuits "with variation according to the respective training ε");
2. select the best pNN by validation loss (those are "the ones to be
   printed");
3. evaluate it on the test split with ``N_test`` Monte-Carlo fabrication
   samples and report mean ± std accuracy.

:func:`run_cell` runs one such cell in-process.  The whole grid runs
through :func:`repro.experiments.parallel.run_table2_parallel`, which
produces the same cells (``workers=1`` runs in-process, without a pool).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core import evaluate_mc
from repro.core.variation import DEFAULT_SCENARIO
from repro.datasets import load_splits
from repro.datasets.base import DatasetSplits
from repro.experiments.config import ExperimentConfig, Setup
from repro.experiments.jobs import (
    SPLIT_SEED,
    JobOutcome,
    best_of_seeds,
    cell_jobs,
    execute_job_lanes,
)
from repro.surrogate.analytic import AnalyticSurrogate
from repro.surrogate.pipeline import SurrogateBundle

Surrogates = Union[SurrogateBundle, tuple]


@dataclass
class CellResult:
    """One Table-II cell: a setup evaluated at one test ϵ.

    ``scenario`` names the non-ideality scenario the cell was trained and
    evaluated under (:data:`repro.core.variation.SCENARIOS`); :func:`run_cell`
    only produces the default ε-only scenario,
    :func:`~repro.experiments.parallel.run_table2_parallel` can sweep a
    scenario grid.
    """

    dataset: str
    setup: Setup
    eps_test: float
    mean: float
    std: float
    best_seed: int
    best_val_loss: float
    scenario: str = DEFAULT_SCENARIO

    def __str__(self) -> str:
        tag = "" if self.scenario == DEFAULT_SCENARIO else f" ({self.scenario})"
        return (
            f"{self.dataset} [{self.setup.label}] ϵ={self.eps_test:.0%}{tag}: "
            f"{self.mean:.3f} ± {self.std:.3f}"
        )


def default_surrogates() -> Tuple[AnalyticSurrogate, AnalyticSurrogate]:
    """Calibration-free fallback used when no NN bundle is supplied."""
    return (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


def mc_evaluation_seed(best_seed: int) -> int:
    """Seed of the Monte-Carlo *test* evaluation for a trained design.

    The protocol evaluates the best-of-seeds design with ``N_test``
    fabrication samples drawn from ``VariationModel(ϵ_test, seed)``.  That
    seed is derived — explicitly and deterministically — from the winning
    *training* seed, so (a) re-evaluating a design always reproduces the
    same accuracy distribution, and (b) the parallel engine
    (:mod:`repro.experiments.parallel`), the persistent result cache and
    :func:`run_cell` all agree bit-for-bit on every Table-II cell.

    The derivation is currently the identity.  It is factored out so any
    future change to the evaluation-noise stream happens in exactly one
    place (and visibly invalidates recorded results).
    """
    return int(best_seed)


def evaluate_cell(
    best: JobOutcome,
    splits: DatasetSplits,
    setup: Setup,
    eps_test: float,
    config: ExperimentConfig,
) -> CellResult:
    """Score a cell's best-of-seeds design on ``N_test`` fabrications.

    ``best.params`` holds the design.  The Monte-Carlo test draws come
    from the winning job's scenario at ``eps_test``, seeded by
    :func:`mc_evaluation_seed`.
    """
    key = best.key
    accuracy = evaluate_mc(
        best.params, splits.x_test, splits.y_test,
        epsilon=eps_test, n_test=config.n_test,
        seed=mc_evaluation_seed(key.seed), scenario=key.scenario,
    )
    return CellResult(
        dataset=key.dataset,
        setup=setup,
        eps_test=eps_test,
        mean=accuracy.mean,
        std=accuracy.std,
        best_seed=key.seed,
        best_val_loss=best.val_loss,
        scenario=key.scenario,
    )


def run_cell(
    dataset: str,
    setup: Setup,
    eps_test: float,
    config: ExperimentConfig,
    surrogates: Optional[Surrogates] = None,
) -> CellResult:
    """Run one Table-II cell: the one-cell case of the job layer.

    The cell's seeds (:func:`~repro.experiments.jobs.cell_jobs`) train as
    one lane batch, :func:`~repro.experiments.jobs.best_of_seeds` picks
    the winner and :func:`evaluate_cell` scores it — the steps
    :func:`repro.experiments.parallel.run_table2_parallel` applies to
    every cell of its grid, so both produce the same cells.  Nothing is
    shared between calls: trainings are reused by ``run_table2_parallel``
    and its on-disk result cache (:mod:`repro.experiments.cache`).
    """
    surrogates = surrogates if surrogates is not None else default_surrogates()
    splits = load_splits(dataset, seed=SPLIT_SEED, max_train=config.max_train)
    keys = cell_jobs(dataset, setup, eps_test, config)
    best = best_of_seeds(execute_job_lanes(keys, config, surrogates, splits))
    return evaluate_cell(best, splits, setup, eps_test, config)
