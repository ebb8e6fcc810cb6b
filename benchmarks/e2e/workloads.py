"""The four end-to-end workloads of the benchmark.

Each workload has a *set-up*, paid once per process and timed as
``setup_s``, and a *unit*: one fixed-size piece of end-to-end work, timed
as ``wall_s`` and repeated for the length of a run.  A unit returns its
record (see :mod:`golden`) and the problems it found in its own outputs,
as ``(op index or None, reason)`` pairs.

Only public ``repro`` functions are called, and the execution options
(``backend``, ``lane_width``, ``mc_shards``, ``workers``) are left at their
defaults, so the numbers are what a user of the library gets.  Calls go
through the package attribute (``experiments.run_table2_parallel``) so the
tracer's rebinding reaches them.  Training runs with
``patience == max_epochs``: every seed then does the same amount of work,
which keeps runs at different seeds comparable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import core, datasets, experiments, exporting, surrogate
from repro.experiments.jobs import SPLIT_SEED

Problems = List[Tuple[Optional[int], str]]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cell_ops(results) -> Tuple[List[dict], Problems]:
    ops, problems = [], []
    for cell in results:
        values = (cell.mean, cell.std, cell.best_val_loss)
        if not all(math.isfinite(v) for v in values) or not 0.0 <= cell.mean <= 1.0:
            problems.append((len(ops), f"cell {cell.dataset}/{cell.setup.label}/{cell.eps_test}/"
                                       f"{cell.scenario}: non-finite or out-of-range {values}"))
        ops.append({
            "op": "cell", "dataset": cell.dataset, "setup": cell.setup.label,
            "eps": cell.eps_test, "scenario": cell.scenario, "mean": cell.mean,
            "std": cell.std, "best_seed": cell.best_seed, "val_loss": cell.best_val_loss,
        })
    return ops, problems


# --------------------------------------------------------------------- #
# train_small / train_large: a cold-cache Table-II slice                #
# --------------------------------------------------------------------- #


@dataclass
class TableState:
    bundle: object
    config: object
    names: Tuple[str, ...]


def setup_table(seed: int, workdir: Path, names, epochs: int) -> TableState:
    config = experiments.PROFILES["fast"].with_overrides(
        seeds=(seed, seed + 1, seed + 2), max_epochs=epochs, patience=epochs)
    return TableState(repro.get_default_bundle(), config, tuple(names))


def run_table(state: TableState, scratch: Path):
    """Train the slice into the empty cache at ``scratch``, then render Tables II and III."""
    cache = experiments.ResultCache(scratch)
    results = experiments.run_table2_parallel(list(state.names), state.config,
                                              surrogates=state.bundle, cache=cache)
    tables = experiments.render_table2(results) + "\n\n" + experiments.render_table3(results)
    journal = experiments.RunJournal.read(cache.journal_path)
    ops, problems = _cell_ops(results)
    job_fields = ("dataset", "learnable", "variation_aware", "train_eps", "seed", "scenario")
    totals = {
        "jobs": len(journal),
        "lane_epochs": sum(entry["epochs_run"] for entry in journal),
        # every seed's loss, not only the winners': in job-key order, not completion order
        "job_val_loss": [entry["val_loss"] for entry in
                         sorted(journal, key=lambda e: tuple(e[f] for f in job_fields))],
        "tables_sha256": _sha(tables),
    }
    return {"ops": ops, "totals": totals}, problems


# --------------------------------------------------------------------- #
# eval_deploy: cached grid re-evaluated, then every design deployed      #
# --------------------------------------------------------------------- #


@dataclass
class DeployState:
    bundle: object
    config: object
    cache: object
    names: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    designs: list
    inputs: Dict[str, np.ndarray]
    seed: int


def setup_deploy(seed: int, workdir: Path, names, scenarios, train_epochs: int,
                 n_test: int, samples: int) -> DeployState:
    """Train one seed of every design into a cache; pick the deploy inputs."""
    bundle = repro.get_default_bundle()
    names, scenarios = tuple(names), tuple(scenarios)
    config = experiments.PROFILES["fast"].with_overrides(
        seeds=(seed,), max_epochs=train_epochs, patience=train_epochs)
    cache = experiments.ResultCache(Path(workdir) / "designs")
    experiments.run_table2_parallel(list(names), config, surrogates=bundle, cache=cache,
                                    scenarios=scenarios)
    fingerprint = core.surrogate_fingerprint(bundle)
    designs = [(key, experiments.job_digest(key, config, fingerprint))
               for key in experiments.enumerate_jobs(list(names), config, scenarios=scenarios)]
    inputs = {name: datasets.load_splits(name, seed=SPLIT_SEED, max_train=config.max_train)
              .x_test[:samples] for name in names}
    # n_test is outside the cache digest, so the timed grid is all cache hits.
    return DeployState(bundle, config.with_overrides(n_test=n_test), cache, names, scenarios,
                       designs, inputs, seed)


def run_deploy(state: DeployState, scratch: Path):
    journal_path = state.cache.journal_path
    seen = len(experiments.RunJournal.read(journal_path))
    results = experiments.run_table2_parallel(list(state.names), state.config,
                                              surrogates=state.bundle, cache=state.cache,
                                              scenarios=state.scenarios)
    tables = experiments.render_scenario_grid(results) + "".join(
        "\n\n" + experiments.render_table3(cells)
        for cells in experiments.split_by_scenario(results).values())
    fresh = experiments.RunJournal.read(journal_path)[seen:]
    ops, problems = _cell_ops(results)
    problems += [(None, f"trained {entry['dataset']} seed {entry['seed']} in the timed phase")
                 for entry in fresh if not entry["cache_hit"]]

    for key, digest in state.designs:
        design = state.cache.load_design(digest, state.bundle)
        tiled = exporting.compile_tiling(design, exporting.TileSpec(max_rows=8, max_cols=8))
        netlist = exporting.export_tiled_netlist_text(tiled)
        verification = exporting.verify_deployment(
            design, state.inputs[key.dataset], tiled=tiled,
            scenarios=("nominal", key.scenario), n_mc=4, seed=state.seed)
        if not verification.passed:
            problems.append((len(ops), f"deploy {key}: verification failed"))
        ops.append({
            "op": "deploy", "dataset": key.dataset, "setup": key.setup.label,
            "train_eps": key.train_eps, "scenario": key.scenario,
            "passed": verification.passed,
            "max_divergence": verification.max_output_divergence,
            "tiles": tiled.n_tiles, "devices": tiled.n_devices,
            "netlist_sha256": _sha(netlist),
        })
    totals = {"cache_hits": sum(entry["cache_hit"] for entry in fresh),
              "tables_sha256": _sha(tables)}
    return {"ops": ops, "totals": totals}, problems


# --------------------------------------------------------------------- #
# characterize: the Fig. 3 surrogate pipeline                           #
# --------------------------------------------------------------------- #


@dataclass
class CharacterizeState:
    seed: int
    n_points: int
    epochs: int


def setup_characterize(seed: int, workdir: Path, n_points: int, epochs: int) -> CharacterizeState:
    return CharacterizeState(seed, n_points, epochs)


def _weights_sha(circuit) -> str:
    hasher = hashlib.sha256()
    for name, array in sorted(circuit.model.state_dict().items()):
        hasher.update(name.encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    for normalizer in (circuit.input_normalizer, circuit.eta_normalizer):
        hasher.update(np.ascontiguousarray(normalizer.minimum).tobytes())
        hasher.update(np.ascontiguousarray(normalizer.maximum).tobytes())
    return hasher.hexdigest()


_KINDS = ("ptanh", "negweight")


def run_characterize(state: CharacterizeState, scratch: Path):
    bundle = surrogate.build_surrogate_bundle(
        n_points=state.n_points, sweep_points=33, max_epochs=state.epochs,
        patience=state.epochs, seed=state.seed, cache_dir=None)
    ops, problems = [], []
    for kind in _KINDS:
        circuit = bundle.surrogate(kind)
        if not math.isfinite(circuit.test_mse):
            problems.append((len(ops), f"surrogate {kind}: test MSE {circuit.test_mse}"))
        ops.append({"op": "surrogate", "kind": kind, "test_mse": circuit.test_mse,
                    "weights_sha256": _weights_sha(circuit)})
    return {"ops": ops, "totals": {"kinds": len(ops)}}, problems


def inspect_characterize(state: CharacterizeState) -> dict:
    """Per-kind kept and sampled counts of the unit's surrogate datasets.

    ``build_surrogate_bundle`` does not return its datasets, so they are
    built again here, with the arguments the bundle builds them with.
    """
    counts = {}
    for kind in _KINDS:
        stats = surrogate.build_surrogate_dataset(
            kind, n_points=state.n_points, sweep_points=33, seed=state.seed).stats
        counts[kind] = {"kept": stats.n_kept, "sampled": stats.n_sampled}
    return counts


# --------------------------------------------------------------------- #
# registry                                                              #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    """``setup(seed, workdir, **sizes)`` and ``run(state, scratch)``; ``sizes`` are the defaults.

    ``inspect(state)``, if given, is called once after the timed units and
    adds what it returns to the run's record.
    """

    setup: Callable
    run: Callable
    sizes: Dict[str, object]
    inspect: Optional[Callable] = None


WORKLOADS: Dict[str, Workload] = {
    # Dispatch-bound training: 24 lane batches of 3 seeds on batches <= 375 rows.
    "train_small": Workload(setup_table, run_table, {
        "names": ("iris", "seeds", "vertebral_3c", "balance_scale"), "epochs": 10}),
    # Array-bound training: 6 lane batches on 1276 rows x 21 features, 10 MC draws.
    "train_large": Workload(setup_table, run_table, {
        "names": ("cardiotocography",), "epochs": 6}),
    # Forward-only: cache-hit grid with MC evaluation, then tile, export and SPICE-verify.
    "eval_deploy": Workload(setup_deploy, run_deploy, {
        "names": ("balance_scale", "tictactoe", "vertebral_3c", "cardiotocography"),
        "scenarios": ("default", "stuck-1pct"), "train_epochs": 2, "n_test": 100,
        "samples": 32}),
    # SPICE sweeps with warm starts, LM fits and autograd MLP training; no pNN.
    "characterize": Workload(setup_characterize, run_characterize, {
        "n_points": 1024, "epochs": 150}, inspect=inspect_characterize),
}
