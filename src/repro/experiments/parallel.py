"""Parallel, cache-aware execution of the Table-II protocol.

:func:`run_table2_parallel` runs the Table-II grid: it enumerates the
protocol's independent training jobs (:mod:`repro.experiments.jobs`),
serves already-solved jobs from the persistent result cache
(:mod:`repro.experiments.cache`), packs the remainder into lane batches,
fans the batches out over a ``ProcessPoolExecutor``, and assembles the
ordered list of :class:`~repro.experiments.runner.CellResult` — the same
cells :func:`~repro.experiments.runner.run_cell` produces one at a
time.

Two tiers of parallelism
------------------------
The **first tier is lane batching**: the pending seeds of one training
group (same dataset, setup and training ϵ) are stacked on a leading lane
axis and trained in lockstep by :func:`repro.core.lanes.train_pnn_lanes`
— one numpy kernel call sequence per epoch instead of one Python epoch
loop per seed, bitwise identical per lane to the one-lane run.  The
**process pool is the second tier**: it spreads whole lane *batches*
(i.e. different groups/datasets) across cores.

Determinism contract
--------------------
Every job owns its own ``default_rng(seed)`` and the Monte-Carlo test
evaluation is seeded from the winning training seed
(:func:`~repro.experiments.runner.mc_evaluation_seed`), so the assembled
results are **bit-for-bit identical** for any worker count, any job
completion order, and any mix of cache hits and fresh trainings.
``workers=1`` additionally runs fully in-process (no pool, no pickling).

Worker processes are created with the ``fork`` start method where
available so the (possibly large, graph-bearing) surrogate objects are
inherited rather than pickled; only the small
:class:`~repro.experiments.jobs.JobKey` crosses the pipe per task, and
only the frozen :class:`~repro.core.params.PNNParams` snapshot (plain
arrays) comes back — never a live module.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.core import surrogate_fingerprint
from repro.core.variation import DEFAULT_SCENARIO
from repro.datasets import load_splits
from repro.experiments.cache import ResultCache, RunJournal, job_digest
from repro.experiments.config import ExperimentConfig
from repro.experiments.jobs import (
    SPLIT_SEED,
    JobKey,
    JobOutcome,
    best_of_seeds,
    cell_jobs,
    enumerate_jobs,
    execute_job_lanes,
    group_jobs_into_lanes,
    iter_cells,
)
from repro.experiments.runner import CellResult, default_surrogates, evaluate_cell

#: State inherited by forked workers (set just before the pool is created).
_FORK_STATE: Dict[str, object] = {}


def _forked_execute_batch(keys: List[JobKey]) -> List[JobOutcome]:
    """Worker entry point for one lane batch (second-tier pool task).

    Reads config/surrogates from :data:`_FORK_STATE`, which the child
    inherited from the parent at fork time — avoiding a per-task pickle
    of the surrogate bundle.
    """
    return execute_job_lanes(keys, _FORK_STATE["config"], _FORK_STATE["surrogates"])


def _pool_context():
    """Prefer ``fork`` (zero-copy surrogate inheritance); fall back cleanly."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_table2_parallel(
    datasets: List[str],
    config: ExperimentConfig,
    surrogates=None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    scenarios: Tuple[str, ...] = (DEFAULT_SCENARIO,),
) -> List[CellResult]:
    """Run the Table-II grid with caching and multi-process training.

    Parameters
    ----------
    datasets:
        Dataset names, in the row order the results should carry.
    config:
        The experiment profile (budget + protocol knobs).
    surrogates:
        Surrogate bundle or analytic pair; defaults to the calibration-free
        analytic fallback, like :func:`~repro.experiments.runner.run_cell`.
    workers:
        Number of training processes.  ``1`` executes in-process, with no
        pool; higher counts change only the wall time, never the results.
        A worker that dies (killed, out of memory) fails the run with a
        ``BrokenProcessPool`` naming the jobs that did not finish; the
        finished ones are already in ``cache``, so a re-run trains only
        the rest.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`.  When
        given, solved jobs are loaded instead of re-trained and fresh
        jobs are persisted, which makes interrupted runs resumable and
        repeated runs free.  Its ``journal.jsonl``
        (:class:`~repro.experiments.cache.RunJournal`) gets one record
        per job — cache hits included, so a second invocation is
        auditable as "zero re-trainings".  The pending seeds of each
        training group train as one lockstep lane batch (first-tier
        parallelism; see the module docstring).
    progress:
        Optional callback receiving one human-readable line per job.
    scenarios:
        Non-ideality scenarios to sweep
        (:data:`repro.core.variation.SCENARIOS` names).  Each scenario
        trains and evaluates its own full grid; the default
        single-scenario sweep reproduces the historical results (and
        cache digests) exactly.

    Returns
    -------
    list of CellResult
        Scenario-major: scenario → dataset → setup → test ϵ
        (:func:`~repro.experiments.jobs.iter_cells` order per scenario).
    """
    surrogates = surrogates if surrogates is not None else default_surrogates()
    fingerprint = surrogate_fingerprint(surrogates)
    journal = RunJournal(cache.journal_path) if cache is not None else None

    tel = telemetry.get()
    scenarios = tuple(scenarios)
    jobs = enumerate_jobs(datasets, config, scenarios=scenarios)
    if tel.enabled:
        tel.event(
            "table2.start",
            datasets=list(datasets),
            workers=str(workers),
            n_jobs=len(jobs),
            cached=cache is not None,
            scenarios=list(scenarios),
        )
    outcomes: Dict[JobKey, JobOutcome] = {}
    pending: List[JobKey] = []

    for key in jobs:
        digest = job_digest(key, config, fingerprint) if cache is not None else None
        cached = cache.load_outcome(digest) if cache is not None else None
        if cached is not None:
            outcomes[key] = cached
            if journal is not None:
                journal.record(cached)
            if progress is not None:
                progress(f"{_job_label(key)} [cache hit]")
        else:
            pending.append(key)

    def _finish(outcome: JobOutcome) -> None:
        key = outcome.key
        outcome.digest = job_digest(key, config, fingerprint) if cache is not None else None
        if cache is not None:
            cache.store(outcome.digest, outcome, surrogates)
        if journal is not None:
            journal.record(outcome)
        outcomes[key] = outcome
        if progress is not None:
            progress(f"{_job_label(key)} [trained {outcome.epochs_run} epochs "
                     f"in {outcome.wall_time:.1f}s]")

    batches = group_jobs_into_lanes(pending)
    if tel.enabled and pending:
        tel.event(
            "lanes.plan",
            n_jobs=len(pending),
            n_batches=len(batches),
            widths=[len(batch) for batch in batches],
        )

    if workers <= 1 or len(batches) <= 1:
        for batch in batches:
            for outcome in execute_job_lanes(batch, config, surrogates):
                _finish(outcome)
    else:
        _FORK_STATE["config"] = config
        _FORK_STATE["surrogates"] = surrogates
        try:
            ctx = _pool_context()
            tel.event("pool.start", workers=str(workers), n_pending=len(batches))
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                not_done = {pool.submit(_forked_execute_batch, batch) for batch in batches}
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    broken = None
                    for future in done:
                        try:
                            batch_outcomes = future.result()
                        except BrokenProcessPool as error:
                            broken = error
                            continue
                        for outcome in batch_outcomes:
                            _finish(outcome)
                    if broken is not None:
                        raise broken
            tel.event("pool.stop", workers=str(workers))
        except BrokenProcessPool as error:
            # Raised once the pool has shut down, so every worker log is
            # complete when the failure is recorded and merged.
            lost = [key for key in pending if key not in outcomes]
            if tel.enabled:
                tel.event("pool.broken", n_jobs=len(jobs), n_lost=len(lost),
                          lost=[_job_label(key) for key in lost])
                tel.merge()
            raise BrokenProcessPool(
                _lost_jobs_message(lost, len(jobs), cache is not None)
            ) from error
        finally:
            _FORK_STATE.clear()

    with tel.span("table2.assemble"):
        results = _assemble(datasets, config, surrogates, outcomes, cache, scenarios)
    if tel.enabled:
        tel.event("table2.done", n_jobs=len(jobs), n_trained=len(pending))
        # Collate the per-process worker logs into the parent run's
        # merged stream; deterministic for a fixed set of events.
        tel.merge()
    return results


def _job_label(key: JobKey) -> str:
    """One job as progress lines, error messages and telemetry name it."""
    tag = "" if key.scenario == DEFAULT_SCENARIO else f"[{key.scenario}] "
    return (f"{key.dataset}: {key.setup.label} ϵ_train={key.train_eps:.0%} "
            f"{tag}seed {key.seed}")


def _lost_jobs_message(lost: List[JobKey], n_jobs: int, cached: bool) -> str:
    """Why a run stopped when its pool broke, and which jobs it lost."""
    lines = [f"a training worker died; {len(lost)} of {n_jobs} jobs did not finish:"]
    lines += [f"  {_job_label(key)}" for key in lost]
    if cached:
        lines.append("The finished jobs are cached; rerun with --resume to "
                     "train only the rest.")
    return "\n".join(lines)


def _assemble(
    datasets: List[str],
    config: ExperimentConfig,
    surrogates,
    outcomes: Dict[JobKey, JobOutcome],
    cache: Optional[ResultCache],
    scenarios: Tuple[str, ...],
) -> List[CellResult]:
    """Best-of-seeds selection + MC evaluation, in :func:`iter_cells` order.

    Each cell's winner is :func:`~repro.experiments.jobs.best_of_seeds`
    over its group's outcomes and is scored by
    :func:`~repro.experiments.runner.evaluate_cell` — the steps of
    ``run_cell`` — so the reported cells match ``run_cell`` exactly.  Each
    scenario assembles its own grid, and the MC test evaluation draws
    from that scenario's model (the default scenario's ``VariationModel``
    draws the historical ε stream).
    """
    results: List[CellResult] = []
    winners: Dict[Tuple[str, bool, bool, float, str], JobOutcome] = {}
    splits_by_dataset: Dict[str, object] = {}
    for scenario in scenarios:
        for dataset, setup, eps_test in iter_cells(datasets):
            if dataset not in splits_by_dataset:
                splits_by_dataset[dataset] = load_splits(
                    dataset, seed=SPLIT_SEED, max_train=config.max_train
                )
            splits = splits_by_dataset[dataset]
            keys = cell_jobs(dataset, setup, eps_test, config, scenario)
            group = keys[0].group
            if group not in winners:
                best = best_of_seeds(outcomes[key] for key in keys)
                if best.params is None:
                    assert cache is not None and best.digest is not None
                    best.params = cache.load_design(best.digest, surrogates)
                winners[group] = best
            results.append(
                evaluate_cell(winners[group], splits, setup, eps_test, config)
            )
    return results
