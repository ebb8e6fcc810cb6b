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
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.core import (
    PrintedNeuralNetwork,
    TrainConfig,
    evaluate_mc,
    train_pnn,
)
from repro.core.variation import DEFAULT_SCENARIO
from repro.datasets import load_splits
from repro.datasets.base import DatasetSplits
from repro.experiments.config import ExperimentConfig, Setup
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


def _train_best(
    splits: DatasetSplits,
    setup: Setup,
    train_eps: float,
    config: ExperimentConfig,
    surrogates: Surrogates,
) -> Tuple[PrintedNeuralNetwork, int, float]:
    """Train one pNN per seed; return the best one by validation loss."""
    best: Optional[Tuple[PrintedNeuralNetwork, int, float]] = None
    topology = [splits.n_features, config.hidden, splits.n_classes]
    for seed in config.seeds:
        pnn = PrintedNeuralNetwork(
            topology,
            surrogates,
            per_neuron_activation=config.per_neuron_activation,
            rng=np.random.default_rng(seed),
        )
        train_config = TrainConfig(
            lr_theta=config.lr_theta,
            lr_omega=config.lr_omega,
            learnable_nonlinear=setup.learnable,
            epsilon=train_eps,
            n_mc_train=config.n_mc_train,
            max_epochs=config.max_epochs,
            patience=config.patience,
            loss=config.loss,
            seed=seed,
        )
        result = train_pnn(
            pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val, train_config
        )
        if best is None or result.best_val_loss < best[2]:
            best = (pnn, seed, result.best_val_loss)
    assert best is not None
    return best


def run_cell(
    dataset: str,
    setup: Setup,
    eps_test: float,
    config: ExperimentConfig,
    surrogates: Optional[Surrogates] = None,
    splits: Optional[DatasetSplits] = None,
    trained: Optional[Dict] = None,
) -> CellResult:
    """Run one Table-II cell.

    Parameters
    ----------
    trained:
        Optional *in-process* memo dict keyed by the hashable tuple
        ``(learnable, variation_aware, train ϵ)``.  Nominal setups train
        once with ϵ = 0 and share that training across both test ϵ
        columns, so passing the same dict to all cells of one dataset
        avoids redundant trainings.

        This memo lives and dies with one Python process.  Its
        *persistent* counterpart is the on-disk result cache
        (:mod:`repro.experiments.cache`) used by
        :func:`repro.experiments.parallel.run_table2_parallel`: same
        sharing rule, but keyed additionally by dataset, config
        fingerprint, surrogate fingerprint and seed, and it survives
        interrupted runs.  The two compose — a cache-hit design is simply
        never re-trained, whichever layer it lands in.
    """
    surrogates = surrogates if surrogates is not None else default_surrogates()
    if splits is None:
        splits = load_splits(dataset, seed=0, max_train=config.max_train)
    train_eps = eps_test if setup.variation_aware else 0.0
    key = (bool(setup.learnable), bool(setup.variation_aware), float(train_eps))
    assert isinstance(hash(key), int), "trained-memo keys must be hashable tuples"
    tel = telemetry.get()
    with tel.span("cell.run", dataset=dataset, setup=setup.label,
                  eps_test=eps_test):
        if trained is not None and key in trained:
            pnn, seed, val_loss = trained[key]
        else:
            pnn, seed, val_loss = _train_best(splits, setup, train_eps, config, surrogates)
            if trained is not None:
                trained[key] = (pnn, seed, val_loss)
        with tel.span("cell.evaluate_mc", dataset=dataset, eps_test=eps_test):
            accuracy = evaluate_mc(
                pnn, splits.x_test, splits.y_test,
                epsilon=eps_test, n_test=config.n_test, seed=mc_evaluation_seed(seed),
            )
    return CellResult(
        dataset=dataset,
        setup=setup,
        eps_test=eps_test,
        mean=accuracy.mean,
        std=accuracy.std,
        best_seed=seed,
        best_val_loss=val_loss,
    )
