"""Experiment harness reproducing the paper's evaluation (Sec. IV).

- :mod:`~repro.experiments.config` — experiment profiles (paper-scale and
  scaled-down budgets) and the 2×2 ablation grid of setups.
- :mod:`~repro.experiments.runner` — trains pNNs per (dataset, setup, ϵ),
  selects the best seed by validation loss and evaluates with Monte-Carlo
  sampling, exactly following Sec. IV-C.
- :mod:`~repro.experiments.jobs` — the protocol decomposed into
  independent, hashable training jobs (dataset, setup, train ϵ, seed),
  plus the lane tier stacking same-group seeds for lockstep training.
- :mod:`~repro.experiments.cache` — SHA-256-keyed on-disk result cache
  plus the JSONL run journal.
- :mod:`~repro.experiments.parallel` — the Table-II scheduler: lane batches
  first, process pool across batches; bit-for-bit identical results at
  any worker count.
- :mod:`~repro.experiments.tables` — renders Table II and Table III.
- :mod:`~repro.experiments.report` — aggregate summary of a recorded
  :mod:`repro.telemetry` run: the health rules (unconverged Newton
  lanes, lost jobs, failed deploy checks, lanes without a finite loss)
  and generic span, counter and event tables.
- :mod:`~repro.experiments.figures` — data series for Fig. 2 and Fig. 4.
- :mod:`~repro.experiments.ablation` — the §IV-D improvement summary.
"""

from repro.experiments.config import (
    ExperimentConfig,
    Setup,
    SETUPS,
    PROFILES,
    profile_from_env,
)
from repro.experiments.runner import (
    CellResult,
    mc_evaluation_seed,
    run_cell,
)
from repro.experiments.jobs import (
    JobKey,
    JobOutcome,
    enumerate_jobs,
    execute_job_lanes,
    group_jobs_into_lanes,
)
from repro.experiments.cache import ResultCache, RunJournal, job_digest
from repro.experiments.parallel import run_table2_parallel
from repro.experiments.report import render_telemetry_report
from repro.experiments.tables import (
    render_scenario_grid,
    render_table2,
    render_table3,
    split_by_scenario,
    summarize_table3,
)
from repro.experiments.ablation import improvement_summary

__all__ = [
    "JobKey",
    "JobOutcome",
    "enumerate_jobs",
    "execute_job_lanes",
    "group_jobs_into_lanes",
    "ResultCache",
    "RunJournal",
    "job_digest",
    "run_table2_parallel",
    "mc_evaluation_seed",
    "ExperimentConfig",
    "Setup",
    "SETUPS",
    "PROFILES",
    "profile_from_env",
    "CellResult",
    "run_cell",
    "render_table2",
    "render_table3",
    "render_scenario_grid",
    "split_by_scenario",
    "render_telemetry_report",
    "summarize_table3",
    "improvement_summary",
]
