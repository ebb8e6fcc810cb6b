"""Decomposition of the Table-II protocol into independent training jobs.

The Sec. IV grid is embarrassingly parallel: every cell trains one pNN per
random seed, and each training owns its own ``default_rng(seed)``, so jobs
can run in any order — or concurrently — without changing a single bit of
the result.  This module defines the unit of work:

- :class:`JobKey` — a frozen, hashable identifier
  ``(dataset, setup, train ϵ, seed, scenario)`` for one training run;
- :func:`enumerate_jobs` — the deduplicated job list for a set of
  datasets (nominal setups train once with ϵ = 0 and are shared across
  both test ϵ columns, exactly like the serial runner's ``trained`` dict);
- :func:`execute_job` — train one pNN and return a picklable
  :class:`JobOutcome` carrying the frozen
  :class:`~repro.core.params.PNNParams` inference snapshot (plain arrays
  and metadata, no live module or surrogate objects);
- :func:`group_jobs_into_lanes` / :func:`execute_job_lanes` — the lane
  tier: all seeds of one training group (same dataset, setup and
  training ϵ — see :attr:`JobKey.group`) are stacked on a leading lane
  axis and trained in lockstep by
  :func:`repro.core.lanes.train_pnn_lanes`, producing outcomes *bitwise*
  identical to per-job :func:`execute_job` calls at a fraction of the
  dispatch cost.

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
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn
from repro.core.lanes import train_pnn_lanes
from repro.core.params import PNNParams, snapshot_params
from repro.core.variation import DEFAULT_SCENARIO
from repro.datasets import load_splits
from repro.datasets.base import DatasetSplits
from repro.experiments.config import SETUPS, TEST_EPSILONS, ExperimentConfig, Setup

#: The dataset split seed used by the whole Table-II protocol
#: (``run_dataset`` has always called ``load_splits(dataset, seed=0)``).
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

        The best-of-seeds selection and the serial runner's ``trained``
        dict both operate at this granularity.
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

    The order matches the serial :func:`~repro.experiments.runner.run_table2`
    exactly, so results assembled from job outcomes line up row for row.
    """
    for dataset in datasets:
        for setup in SETUPS:
            for eps_test in TEST_EPSILONS:
                yield dataset, setup, eps_test


def enumerate_jobs(
    datasets: List[str],
    config: ExperimentConfig,
    scenarios: Tuple[str, ...] = (DEFAULT_SCENARIO,),
) -> List[JobKey]:
    """The deduplicated training jobs behind a Table-II run.

    Nominal setups share a single ϵ = 0 training across both test ϵ
    columns — the on-disk analogue of the serial runner's ``trained``
    dict — so 4 setups × 2 test ϵ collapse to 6 training groups per
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
            group = (
                dataset, setup.learnable, setup.variation_aware,
                train_epsilon(setup, eps_test), scenario,
            )
            if group in seen:
                continue
            seen.add(group)
            for seed in config.seeds:
                key = JobKey(
                    dataset=dataset,
                    learnable=setup.learnable,
                    variation_aware=setup.variation_aware,
                    train_eps=train_epsilon(setup, eps_test),
                    seed=int(seed),
                    scenario=scenario,
                )
                assert isinstance(hash(key), int) and key.astuple() == (
                    key.dataset, key.learnable, key.variation_aware,
                    key.train_eps, key.seed, key.scenario,
                ), "job keys must be hashable dataclass tuples"
                jobs.append(key)
    return jobs


def _train_config(key: JobKey, config: ExperimentConfig) -> TrainConfig:
    """The :class:`TrainConfig` a job trains with (single source of truth).

    Shared by :func:`execute_job` and :func:`execute_job_lanes` so the
    serial and lane tiers can never drift apart on hyperparameters.
    """
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


def execute_job(
    key: JobKey,
    config: ExperimentConfig,
    surrogates,
    splits: Optional[DatasetSplits] = None,
    engine: str = "kernel",
) -> JobOutcome:
    """Train one pNN for ``key`` — bit-identical to the serial runner.

    The network is seeded with ``default_rng(key.seed)`` and trained with
    the same :class:`~repro.core.training.TrainConfig` the serial
    ``_train_best`` loop builds, so executing jobs out of order (or in
    other processes) reproduces the serial results exactly.

    Parameters
    ----------
    key:
        The job identity.
    config:
        The experiment profile; only its training fields (see
        :meth:`ExperimentConfig.training_fingerprint`) influence the
        outcome.
    surrogates:
        Surrogate bundle or analytic pair; *read-only* during training.
    splits:
        Optional pre-loaded dataset splits; when ``None`` they are loaded
        with the protocol's fixed :data:`SPLIT_SEED`.
    engine:
        Training execution engine, forwarded to
        :func:`~repro.core.training.train_pnn` (``"kernel"`` fast path by
        default, ``"autograd"`` as the cross-check).  Both engines consume
        the same RNG streams and agree to float64 rounding, so the engine
        choice is deliberately *not* part of the cache fingerprint
        (:meth:`ExperimentConfig.training_fingerprint`) — switching it must
        not invalidate recorded results.

    Returns
    -------
    JobOutcome
        With the trained design's frozen ``params`` snapshot attached.
    """
    if splits is None:
        splits = load_splits(key.dataset, seed=SPLIT_SEED, max_train=config.max_train)
    topology = (splits.n_features, config.hidden, splits.n_classes)
    tel = telemetry.get()
    start = time.perf_counter()
    cpu_start = time.process_time()
    with tel.span(
        "job.execute",
        dataset=key.dataset,
        learnable=key.learnable,
        variation_aware=key.variation_aware,
        train_eps=key.train_eps,
        seed=key.seed,
        scenario=key.scenario,
        engine=engine,
    ):
        pnn = PrintedNeuralNetwork(
            list(topology),
            surrogates,
            per_neuron_activation=config.per_neuron_activation,
            rng=np.random.default_rng(key.seed),
        )
        train_config = _train_config(key, config)
        result = train_pnn(
            pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val,
            train_config, engine=engine,
        )
    wall_time = time.perf_counter() - start
    if tel.enabled:
        tel.event(
            "job.done",
            dataset=key.dataset,
            learnable=key.learnable,
            variation_aware=key.variation_aware,
            train_eps=key.train_eps,
            seed=key.seed,
            scenario=key.scenario,
            wall_s=wall_time,
            cpu_s=time.process_time() - cpu_start,
            epochs_run=result.epochs_run,
            best_epoch=result.best_epoch,
            val_loss=result.best_val_loss,
        )
    return JobOutcome(
        key=key,
        topology=topology,
        per_neuron_activation=config.per_neuron_activation,
        val_loss=result.best_val_loss,
        best_epoch=result.best_epoch,
        epochs_run=result.epochs_run,
        wall_time=wall_time,
        params=snapshot_params(pnn),
    )


def group_jobs_into_lanes(
    jobs: List[JobKey], lane_width: int
) -> List[List[JobKey]]:
    """Chunk a job list into lane batches of at most ``lane_width``.

    Jobs sharing a :attr:`JobKey.group` (same dataset, setup and training
    ϵ — hence the same splits, topology and shared hyperparameters) are
    lane-compatible; they are batched in input order, and batches are
    emitted in first-appearance order of their group, so the schedule is
    deterministic for a deterministic job list.  ``lane_width <= 1``
    degenerates to one singleton batch per job (the serial tier).

    Because lane execution is bitwise identical to serial execution, the
    chunking policy affects wall time only — never results.
    """
    if lane_width <= 1:
        return [[key] for key in jobs]
    buckets: "dict[tuple, List[JobKey]]" = {}
    order: List[tuple] = []
    for key in jobs:
        group = key.group
        if group not in buckets:
            buckets[group] = []
            order.append(group)
        buckets[group].append(key)
    batches: List[List[JobKey]] = []
    for group in order:
        members = buckets[group]
        for start in range(0, len(members), lane_width):
            batches.append(members[start:start + lane_width])
    return batches


def execute_job_lanes(
    keys: List[JobKey],
    config: ExperimentConfig,
    surrogates,
    splits: Optional[DatasetSplits] = None,
) -> List[JobOutcome]:
    """Train one lane batch in lockstep — bitwise equal to serial jobs.

    All ``keys`` must share a :attr:`JobKey.group`; each key becomes one
    lane of a :func:`repro.core.lanes.train_pnn_lanes` run.  Every lane's
    network is seeded with ``default_rng(key.seed)`` exactly as
    :func:`execute_job` does, and the lane engine is bitwise equal to the
    serial kernel engine per lane, so the returned outcomes carry the
    same losses, epochs and parameter snapshots as ``L`` separate
    :func:`execute_job` calls (pinned by
    ``tests/experiments/test_lane_jobs.py``).

    A width-1 batch falls through to :func:`execute_job` unchanged.  The
    reported ``wall_time`` is the batch wall time divided evenly across
    lanes (the scheduler-visible amortized cost); telemetry gets one
    ``job.lanes`` span for the batch plus the usual per-job ``job.done``
    events tagged with ``lanes=len(keys)``.
    """
    keys = list(keys)
    if not keys:
        return []
    first = keys[0]
    if any(key.group != first.group for key in keys):
        raise ValueError("lane batch must share one training group")
    if splits is None:
        splits = load_splits(first.dataset, seed=SPLIT_SEED, max_train=config.max_train)
    if len(keys) == 1:
        return [execute_job(first, config, surrogates, splits=splits)]

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
                train_eps=key.train_eps,
                seed=key.seed,
                scenario=key.scenario,
                wall_s=wall_share,
                cpu_s=cpu_share,
                epochs_run=result.epochs_run,
                best_epoch=result.best_epoch,
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
