"""Decomposition of the Table-II protocol into independent training jobs.

The Sec. IV grid is embarrassingly parallel: every cell trains one pNN per
random seed, and each training owns its own ``default_rng(seed)``, so jobs
can run in any order — or concurrently — without changing a single bit of
the result.  This module defines the unit of work:

- :class:`JobKey` — a frozen, hashable identifier
  ``(dataset, setup, train ϵ, seed, scenario)`` for one training run;
- :func:`enumerate_jobs` — the deduplicated job list for a set of
  datasets (nominal setups train once with ϵ = 0 and are shared across
  both test ϵ columns);
- :func:`group_jobs_into_lanes` / :func:`execute_job_lanes` — the lane
  tier: the pending seeds of one training group (same dataset, setup and
  training ϵ — see :attr:`JobKey.group`) are stacked on a leading lane
  axis and trained in lockstep by
  :func:`repro.core.lanes.train_pnn_lanes`.  Each key comes back as a
  picklable :class:`JobOutcome` carrying the frozen
  :class:`~repro.core.params.PNNParams` inference snapshot (plain arrays
  and metadata, no live module or surrogate objects), *bitwise*
  identical whatever the batch width — one key alone is a one-lane
  batch.

The snapshot *is* the design artifact: the parent process evaluates it
directly through the autograd-free kernel path
(:func:`repro.core.evaluation.evaluate_mc` accepts it as-is) — no module
reconstruction needed.

:mod:`repro.experiments.parallel` schedules these jobs across processes
and :mod:`repro.experiments.cache` persists their outcomes on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core import PrintedNeuralNetwork, TrainConfig
from repro.core.lanes import train_pnn_lanes
from repro.core.params import PNNParams, snapshot_params
from repro.core.variation import DEFAULT_SCENARIO
from repro.datasets import load_splits
from repro.datasets.base import DatasetSplits
from repro.experiments.config import SETUPS, TEST_EPSILONS, ExperimentConfig, Setup

#: The dataset split seed used by the whole Table-II protocol.
SPLIT_SEED = 0


@dataclass(frozen=True, order=True)
class JobKey:
    """Identity of one training job: ``(dataset, setup, train ϵ, seed)``.

    Frozen (hence hashable) and totally ordered, so job lists enumerate
    deterministically and keys can serve as dict/cache keys directly.

    Attributes
    ----------
    dataset:
        Registry name of the benchmark dataset (e.g. ``"iris"``).
    learnable, variation_aware:
        The :class:`~repro.experiments.config.Setup` flags, flattened so
        the key is a plain tuple of primitives.
    train_eps:
        Training variation level: the cell's test ϵ for variation-aware
        setups, ``0.0`` for nominal ones.
    seed:
        The random seed owning this training run (network init +
        variation sampling).
    scenario:
        Named non-ideality scenario from
        :data:`repro.core.variation.SCENARIOS`.  Appended with a default
        so pre-scenario call sites (and cached 5-element key metadata)
        keep working positionally.
    """

    dataset: str
    learnable: bool
    variation_aware: bool
    train_eps: float
    seed: int
    scenario: str = DEFAULT_SCENARIO

    @property
    def setup(self) -> Setup:
        """The 2×2-grid setup this job belongs to."""
        return Setup(learnable=self.learnable, variation_aware=self.variation_aware)

    @property
    def group(self) -> Tuple[str, bool, bool, float, str]:
        """Training-group key: all seeds of one ``(dataset, setup, train ϵ, scenario)``.

        Lane batching and the best-of-seeds selection both operate at
        this granularity.
        """
        return (
            self.dataset, self.learnable, self.variation_aware,
            self.train_eps, self.scenario,
        )

    def astuple(self) -> Tuple[str, bool, bool, float, int, str]:
        """The key as a plain tuple (stable field order, scenario last)."""
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class JobOutcome:
    """Everything a finished training job hands back to the scheduler.

    Deliberately contains only primitives and numpy arrays so it crosses
    process boundaries (and the on-disk cache) without dragging along live
    surrogate or autograd objects.

    Attributes
    ----------
    key:
        The job's :class:`JobKey`.
    topology:
        Layer sizes of the trained network, ``(n_features, hidden,
        n_classes)``.
    per_neuron_activation:
        Structural flag the network was built with.
    params:
        The frozen :class:`~repro.core.params.PNNParams` inference
        snapshot of the trained design; ``None`` when the outcome was
        restored from the persistent cache and the design has not been
        materialized yet (see
        :meth:`~repro.experiments.cache.ResultCache.load_design`).
    val_loss:
        Best validation loss reached (the best-of-seeds criterion).
    best_epoch, epochs_run:
        Early-stopping bookkeeping, journaled for observability.
    wall_time:
        Training wall time in seconds (0.0 for cache hits).
    cache_hit:
        Whether this outcome was served from the persistent cache.
    digest:
        The cache digest the outcome is stored under (``None`` when
        caching is disabled).
    """

    key: JobKey
    topology: Tuple[int, ...]
    per_neuron_activation: bool
    val_loss: float
    best_epoch: int
    epochs_run: int
    wall_time: float
    params: Optional[PNNParams] = None
    cache_hit: bool = False
    digest: Optional[str] = None


def train_epsilon(setup: Setup, eps_test: float) -> float:
    """The training ϵ a cell uses: its test ϵ if variation-aware, else 0."""
    return eps_test if setup.variation_aware else 0.0


def iter_cells(datasets: List[str]) -> Iterator[Tuple[str, Setup, float]]:
    """Yield Table-II cells ``(dataset, setup, test ϵ)`` in render order.

    :func:`~repro.experiments.parallel.run_table2_parallel` assembles its
    results in this order, so a loop of
    :func:`~repro.experiments.runner.run_cell` over these cells lines up
    with it row for row.
    """
    for dataset in datasets:
        for setup in SETUPS:
            for eps_test in TEST_EPSILONS:
                yield dataset, setup, eps_test


def cell_jobs(
    dataset: str,
    setup: Setup,
    eps_test: float,
    config: ExperimentConfig,
    scenario: str = DEFAULT_SCENARIO,
) -> List[JobKey]:
    """The training jobs behind one Table-II cell, in ``config.seeds`` order.

    One key per seed of the cell's training group; the cells a nominal
    setup shares across both test ϵ columns get the same keys.
    """
    return [
        JobKey(
            dataset=dataset,
            learnable=setup.learnable,
            variation_aware=setup.variation_aware,
            train_eps=train_epsilon(setup, eps_test),
            seed=int(seed),
            scenario=scenario,
        )
        for seed in config.seeds
    ]


def enumerate_jobs(
    datasets: List[str],
    config: ExperimentConfig,
    scenarios: Tuple[str, ...] = (DEFAULT_SCENARIO,),
) -> List[JobKey]:
    """The deduplicated training jobs behind a Table-II run.

    Nominal setups share a single ϵ = 0 training across both test ϵ
    columns, so 4 setups × 2 test ϵ collapse to 6 training groups per
    dataset, each fanned out over ``config.seeds``.  Each scenario gets
    its own full grid (scenario-major order), since a scenario changes
    what the training optimizes against.

    Returns
    -------
    list of JobKey
        In deterministic scenario order, then cell order, then seed
        order; every key is hashable and unique.
    """
    jobs: List[JobKey] = []
    seen = set()
    for scenario in scenarios:
        for dataset, setup, eps_test in iter_cells(datasets):
            keys = cell_jobs(dataset, setup, eps_test, config, scenario)
            if keys and keys[0].group not in seen:
                seen.add(keys[0].group)
                jobs.extend(keys)
    return jobs


def best_of_seeds(outcomes: Iterable[JobOutcome]) -> JobOutcome:
    """The design the protocol prints: the lowest validation loss.

    ``outcomes`` come in ``config.seeds`` order and a later seed wins only
    with a strictly lower loss, so ties go to the earlier seed.
    """
    return min(outcomes, key=attrgetter("val_loss"))


def _train_config(key: JobKey, config: ExperimentConfig) -> TrainConfig:
    """The :class:`TrainConfig` a job trains with (single source of truth)."""
    return TrainConfig(
        lr_theta=config.lr_theta,
        lr_omega=config.lr_omega,
        learnable_nonlinear=key.learnable,
        epsilon=key.train_eps,
        n_mc_train=config.n_mc_train,
        max_epochs=config.max_epochs,
        patience=config.patience,
        loss=config.loss,
        seed=key.seed,
        scenario=key.scenario,
    )


def group_jobs_into_lanes(jobs: List[JobKey]) -> List[List[JobKey]]:
    """One lane batch per training group, in first-appearance order.

    Jobs sharing a :attr:`JobKey.group` (same dataset, setup, training ϵ
    and scenario — hence the same splits, topology and shared
    hyperparameters) are lane-compatible and train as one batch, in input
    order.  The scheduler passes only its pending (uncached) jobs, so a
    group with cached seeds trains the rest as one narrower batch.  The
    schedule is deterministic for a deterministic job list, and because
    every lane is bitwise identical to its one-lane run, the batching
    affects wall time only — never results.
    """
    batches: Dict[Tuple, List[JobKey]] = {}
    for key in jobs:
        batches.setdefault(key.group, []).append(key)
    return list(batches.values())


def execute_job_lanes(
    keys: List[JobKey],
    config: ExperimentConfig,
    surrogates,
    splits: Optional[DatasetSplits] = None,
) -> List[JobOutcome]:
    """Train one lane batch in lockstep; one outcome per key, in order.

    All ``keys`` must share a :attr:`JobKey.group`; each key becomes one
    lane of a :func:`repro.core.lanes.train_pnn_lanes` run, its network
    seeded with ``default_rng(key.seed)`` and trained with the
    :class:`~repro.core.training.TrainConfig` of :func:`_train_config`.
    Every lane is bitwise equal to its one-lane run, so the outcomes
    carry the same losses, epochs and parameter snapshots at any batch
    width (pinned by ``tests/experiments/test_lane_jobs.py``) — executing
    jobs out of order, in other processes or in other batches reproduces
    them exactly.

    ``splits`` optionally supplies pre-loaded dataset splits; ``None``
    loads them with the protocol's fixed :data:`SPLIT_SEED`.  The
    reported ``wall_time`` is the batch wall time divided evenly across
    lanes (the scheduler-visible amortized cost); telemetry gets one
    ``job.lanes`` span for the batch plus one ``job.done`` event per
    key, tagged with ``lanes=len(keys)``.
    """
    keys = list(keys)
    if not keys:
        return []
    first = keys[0]
    if any(key.group != first.group for key in keys):
        raise ValueError("lane batch must share one training group")
    if splits is None:
        splits = load_splits(first.dataset, seed=SPLIT_SEED, max_train=config.max_train)
    topology = (splits.n_features, config.hidden, splits.n_classes)
    tel = telemetry.get()
    start = time.perf_counter()
    cpu_start = time.process_time()
    with tel.span(
        "job.lanes",
        dataset=first.dataset,
        learnable=first.learnable,
        variation_aware=first.variation_aware,
        train_eps=first.train_eps,
        scenario=first.scenario,
        n_lanes=len(keys),
        seeds=[key.seed for key in keys],
    ):
        pnns = [
            PrintedNeuralNetwork(
                list(topology),
                surrogates,
                per_neuron_activation=config.per_neuron_activation,
                rng=np.random.default_rng(key.seed),
            )
            for key in keys
        ]
        results = train_pnn_lanes(
            pnns,
            splits.x_train, splits.y_train, splits.x_val, splits.y_val,
            [_train_config(key, config) for key in keys],
        )
    wall_time = time.perf_counter() - start
    cpu_time = time.process_time() - cpu_start
    wall_share = wall_time / len(keys)
    cpu_share = cpu_time / len(keys)

    outcomes: List[JobOutcome] = []
    for key, pnn, result in zip(keys, pnns, results):
        if tel.enabled:
            tel.event(
                "job.done",
                dataset=key.dataset,
                learnable=key.learnable,
                variation_aware=key.variation_aware,
                train_eps=str(key.train_eps),
                seed=str(key.seed),
                scenario=key.scenario,
                wall_s=wall_share,
                cpu_s=cpu_share,
                epochs_run=result.epochs_run,
                best_epoch=str(result.best_epoch),
                val_loss=result.best_val_loss,
                lanes=len(keys),
            )
        outcomes.append(
            JobOutcome(
                key=key,
                topology=topology,
                per_neuron_activation=config.per_neuron_activation,
                val_loss=result.best_val_loss,
                best_epoch=result.best_epoch,
                epochs_run=result.epochs_run,
                wall_time=wall_share,
                params=snapshot_params(pnn),
            )
        )
    return outcomes
