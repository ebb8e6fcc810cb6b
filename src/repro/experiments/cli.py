"""Command-line interface for the experiment harness.

Examples
--------
Build (or refresh) the shared surrogate bundle::

    python -m repro.experiments.cli surrogate --points 4096

Run one Table-II cell::

    python -m repro.experiments.cli cell --dataset iris --learnable \
        --variation-aware --epsilon 0.10 --profile fast

Regenerate the full Table II / Table III at a profile::

    python -m repro.experiments.cli table2 --profile smoke --datasets iris seeds

Fan the trainings out over 4 processes with the on-disk result cache (a
re-run — or a run interrupted and restarted — re-trains nothing)::

    python -m repro.experiments.cli table2 --profile smoke --datasets iris \
        --workers 4 --cache-dir artifacts/table2_cache

Sweep non-ideality scenarios (each trains + evaluates its own grid; the
``gaussian`` scenario swaps the uniform ε model for the Gaussian one,
``stuck-1pct`` adds ~1% stuck-at conductance defects, ``correlated``
applies spatially-correlated printing variation)::

    python -m repro.experiments.cli table2 --profile smoke --datasets iris \
        --scenario default --scenario stuck-1pct

Record structured telemetry while running, then inspect it (``report``
exits 1 when a health rule fails)::

    python -m repro.experiments.cli table2 --profile smoke --datasets iris \
        --workers 2 --telemetry artifacts/telemetry/run1
    python -m repro.experiments.cli report --telemetry artifacts/telemetry/run1
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro import default_artifacts_dir, get_default_bundle, telemetry
from repro.core.variation import DEFAULT_SCENARIO, scenario_names
from repro.datasets import DATASET_NAMES
from repro.experiments.ablation import improvement_summary
from repro.experiments.cache import ResultCache
from repro.experiments.config import PROFILES, Setup
from repro.experiments.parallel import run_table2_parallel
from repro.experiments.report import check_health, render_telemetry_report
from repro.experiments.runner import run_cell
from repro.experiments.tables import (
    render_scenario_grid,
    render_table3,
    split_by_scenario,
)


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke",
        help="experiment budget (default: smoke)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.experiments", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    surrogate = commands.add_parser("surrogate", help="build the shared surrogate bundle")
    surrogate.add_argument("--points", type=int, default=4096, help="QMC design points")
    surrogate.add_argument("--seed", type=int, default=0)

    cell = commands.add_parser("cell", help="run one Table-II cell")
    cell.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    cell.add_argument("--learnable", action="store_true",
                      help="learn the nonlinear circuits (α_ω = 0.005)")
    cell.add_argument("--variation-aware", action="store_true",
                      help="train with the Monte-Carlo expected loss")
    cell.add_argument("--epsilon", type=float, default=0.10, help="test variation level")
    _add_profile(cell)

    table2 = commands.add_parser("table2", help="regenerate Table II and Table III")
    table2.add_argument("--datasets", nargs="*", choices=DATASET_NAMES,
                        default=list(DATASET_NAMES))
    _add_profile(table2)
    table2.add_argument("--workers", type=int, default=1, metavar="N",
                        help="training processes; 1 is serial and bit-identical "
                             "to higher counts (default: 1)")
    table2.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="on-disk result cache directory "
                             "(default: artifacts/table2_cache)")
    table2.add_argument("--no-cache", action="store_true",
                        help="disable the result cache (always re-train)")
    table2.add_argument("--resume", action="store_true",
                        help="require an existing cache directory and resume "
                             "it (resuming is otherwise automatic whenever "
                             "the cache is enabled)")
    table2.add_argument("--telemetry", metavar="DIR", default=None,
                        help="record structured telemetry (JSONL events + run "
                             "manifest) into DIR; results are bit-identical "
                             "with or without it")
    table2.add_argument("--scenario", action="append", dest="scenarios",
                        choices=scenario_names(), metavar="NAME", default=None,
                        help="non-ideality scenario to sweep (repeatable); "
                             "choices: " + ", ".join(scenario_names()) + " "
                             "(default: default ε-only)")

    export = commands.add_parser(
        "export",
        help="hardware-deploy export: tile a trained snapshot onto physical "
             "crossbar arrays, emit the netlist, and (optionally) verify it "
             "closed-loop through the batched SPICE engine",
    )
    export.add_argument("--params", required=True, metavar="FILE",
                        help="PNNParams snapshot (.npz from save_params)")
    export.add_argument("--output", metavar="FILE", default=None,
                        help="write the netlist here (default: stdout is "
                             "report-only, no netlist dump)")
    export.add_argument("--title", default="pnn", help="netlist title comment")
    export.add_argument("--tile-rows", type=int, default=None, metavar="R",
                        help="max physical rows per crossbar tile, incl. 2 "
                             "bias/ground rail rows (default: unbounded)")
    export.add_argument("--tile-cols", type=int, default=None, metavar="C",
                        help="max output columns per crossbar tile "
                             "(default: unbounded)")
    export.add_argument("--bias-policy", choices=("first", "split"),
                        default="first",
                        help="rail devices in the first row-block only, or "
                             "conductance-split across all row blocks "
                             "(default: first)")
    export.add_argument("--inverter-budget", type=int, default=None, metavar="N",
                        help="max negation circuits per tile (default: unbounded)")
    export.add_argument("--verify", action="store_true",
                        help="re-simulate the tiled design through "
                             "solve_dc_batch and gate on kernel agreement")
    export.add_argument("--verify-samples", type=int, default=8, metavar="B",
                        help="input samples for verification (default: 8)")
    export.add_argument("--scenario", action="append", dest="scenarios",
                        choices=("nominal",) + scenario_names(), metavar="NAME",
                        default=None,
                        help="verification scenario (repeatable; default: "
                             "nominal + default ε-variation)")
    export.add_argument("--epsilon", type=float, default=0.10,
                        help="variation level for non-nominal scenarios "
                             "(default: 0.10)")
    export.add_argument("--n-mc", type=int, default=2, metavar="N",
                        help="Monte-Carlo draws per non-nominal scenario "
                             "(default: 2)")
    export.add_argument("--seed", type=int, default=0,
                        help="seed for verification inputs and variation draws")
    export.add_argument("--telemetry", metavar="DIR", default=None,
                        help="record telemetry (export.tile / export.verify "
                             "spans, deploy counters) into DIR")

    report = commands.add_parser(
        "report", help="aggregate summary and health rules of a recorded "
                       "telemetry run (exit 1 when a rule fails)"
    )
    report.add_argument("--telemetry", metavar="DIR", required=True,
                        help="telemetry directory of a previous run")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="slowest span records to list (default: 10)")

    return parser


@contextmanager
def _recording(directory: Optional[str], manifest: dict):
    """Record telemetry into ``directory`` (when given) for the block only.

    :func:`telemetry.enable` also exports ``REPRO_TELEMETRY_DIR``; switching
    it off on every way out keeps an in-process caller of :func:`main` from
    writing into ``directory`` afterwards.
    """
    if not directory:
        yield
        return
    telemetry.enable(directory, manifest=manifest)
    try:
        yield
    finally:
        telemetry.disable()


def _run_export(args) -> int:
    from repro.core.serialization import load_params
    from repro.exporting import (
        TileSpec,
        TilingError,
        compile_tiling,
        deploy_report,
        export_tiled_netlist_text,
    )

    manifest = {
        "command": "export",
        "params": str(args.params),
        "tile_rows": args.tile_rows,
        "tile_cols": args.tile_cols,
        "bias_policy": args.bias_policy,
        "verify": bool(args.verify),
        "scenarios": list(args.scenarios or ("nominal", "default")),
        "seed": args.seed,
    }
    with _recording(args.telemetry, manifest):
        params = load_params(args.params)
        try:
            spec = TileSpec(
                max_rows=args.tile_rows,
                max_cols=args.tile_cols,
                bias_policy=args.bias_policy,
                inverter_budget=args.inverter_budget,
            )
            tiled = compile_tiling(params, spec)
        except TilingError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        if args.output:
            text = export_tiled_netlist_text(tiled, title=args.title)
            out = Path(args.output)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text + "\n")
            print(f"netlist written: {out}", file=sys.stderr)

        scenarios = tuple(dict.fromkeys(args.scenarios or ("nominal", "default")))
        report = deploy_report(
            params, spec,
            tiled=tiled,
            verify=args.verify,
            scenarios=scenarios,
            epsilon=args.epsilon,
            n_mc=args.n_mc,
            seed=args.seed,
            n_samples=args.verify_samples,
        )
        print(report.summary())
        if args.telemetry:
            telemetry.get().merge()
    if args.verify and not report.passed:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "report":
        try:
            report = render_telemetry_report(args.telemetry, top=args.top)
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(report, end="")
        summary = telemetry.summarize_events(telemetry.read_events(args.telemetry))
        return 1 if any(value for _, value in check_health(summary)) else 0

    if args.command == "export":
        return _run_export(args)

    if args.command == "surrogate":
        bundle = get_default_bundle(n_points=args.points, seed=args.seed, verbose=True)
        print(f"bundle ready: ptanh test MSE {bundle.ptanh.test_mse:.2e}, "
              f"negweight test MSE {bundle.negweight.test_mse:.2e}")
        return 0

    bundle = get_default_bundle()
    profile = PROFILES[args.profile]

    if args.command == "cell":
        setup = Setup(learnable=args.learnable, variation_aware=args.variation_aware)
        result = run_cell(args.dataset, setup, args.epsilon, profile, surrogates=bundle)
        print(result)
        return 0

    if args.command == "table2":
        if args.no_cache and args.resume:
            print("error: --resume requires the cache; drop --no-cache", file=sys.stderr)
            return 2
        cache = None
        if not args.no_cache:
            cache_dir = (
                Path(args.cache_dir) if args.cache_dir
                else default_artifacts_dir() / "table2_cache"
            )
            if args.resume and not cache_dir.is_dir():
                print(f"error: --resume given but no cache at {cache_dir}", file=sys.stderr)
                return 2
            cache = ResultCache(cache_dir)
        scenarios = tuple(dict.fromkeys(args.scenarios or (DEFAULT_SCENARIO,)))
        manifest = {
            "command": "table2",
            "profile": args.profile,
            "datasets": list(args.datasets),
            "workers": args.workers,
            "seeds": list(profile.seeds),
            "scenarios": list(scenarios),
        }
        with _recording(args.telemetry, manifest):
            results = run_table2_parallel(
                args.datasets, profile, surrogates=bundle,
                workers=args.workers, cache=cache,
                progress=lambda msg: print(f"[run] {msg}", file=sys.stderr),
                scenarios=scenarios,
            )
        print(render_scenario_grid(results))
        print()
        # Table III and the §IV-D summary are per-scenario analyses.
        for scenario, cells in split_by_scenario(results).items():
            if len(scenarios) > 1:
                print(f"=== scenario: {scenario} ===")
            print(render_table3(cells))
            for summary in improvement_summary(cells).values():
                print(summary)
        return 0

    return 1   # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":
    raise SystemExit(main())
