"""Aggregate, human-readable view of a telemetry run.

:func:`render_telemetry_report` turns the JSONL event stream of one run
(``repro.telemetry``) into the operational summary the engine work has
been missing: whether the run failed, which jobs were slowest, how the
wall time split between workers, the cache hit ratio, the Newton health
of the SPICE engine and how lane training shrank its active set.

Exposed on the command line as::

    python -m repro.experiments.cli report --telemetry <dir>
"""

from __future__ import annotations

import os
from typing import Dict, List, Union

from repro.telemetry import read_manifest, read_events, summarize_events


def _setup_label(learnable: bool, variation_aware: bool) -> str:
    """The 2×2-grid shorthand used across the tables (L/VA flags)."""
    bits = []
    if learnable:
        bits.append("L")
    if variation_aware:
        bits.append("VA")
    return "+".join(bits) if bits else "base"


def _fmt_seconds(value: float) -> str:
    return f"{value:8.2f}s"


def _rows_to_table(header: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _job_section(events: List[Dict], top: int) -> List[str]:
    jobs = [e for e in events if e.get("kind") == "event" and e.get("name") == "job.done"]
    if not jobs:
        return ["jobs: no job.done events recorded"]
    jobs_sorted = sorted(jobs, key=lambda e: -float(e["attrs"].get("wall_s", 0.0)))
    total_wall = sum(float(e["attrs"].get("wall_s", 0.0)) for e in jobs)
    total_cpu = sum(float(e["attrs"].get("cpu_s", 0.0)) for e in jobs)
    lines = [
        f"jobs: {len(jobs)} trained, wall {total_wall:.2f}s, cpu {total_cpu:.2f}s",
        "",
        f"slowest {min(top, len(jobs))} jobs:",
    ]
    rows = []
    for event in jobs_sorted[:top]:
        a = event["attrs"]
        rows.append([
            str(a.get("dataset")),
            _setup_label(bool(a.get("learnable")), bool(a.get("variation_aware"))),
            f"{float(a.get('train_eps', 0.0)):.0%}",
            str(a.get("seed")),
            f"{float(a.get('wall_s', 0.0)):.2f}s",
            f"{float(a.get('cpu_s', 0.0)):.2f}s",
            str(a.get("epochs_run")),
            f"{float(a.get('val_loss', float('nan'))):.4f}",
            str(event.get("pid")),
        ])
    lines.extend(_rows_to_table(
        ["dataset", "setup", "eps", "seed", "wall", "cpu", "epochs", "val_loss", "pid"],
        rows,
    ))
    return lines


def _worker_section(events: List[Dict]) -> List[str]:
    per_pid: Dict[int, Dict[str, float]] = {}
    for event in events:
        if event.get("kind") == "event" and event.get("name") == "job.done":
            stat = per_pid.setdefault(event.get("pid"), {"jobs": 0, "wall_s": 0.0})
            stat["jobs"] += 1
            stat["wall_s"] += float(event["attrs"].get("wall_s", 0.0))
    starts = [e for e in events
              if e.get("kind") == "event" and e.get("name") == "process.start"]
    lines = [f"workers: {len(starts)} processes wrote events"]
    if per_pid:
        rows = [
            [str(pid), str(int(stat["jobs"])), f"{stat['wall_s']:.2f}s"]
            for pid, stat in sorted(per_pid.items())
        ]
        lines.extend(_rows_to_table(["pid", "jobs", "wall"], rows))
    return lines


def _cache_section(counters: Dict[str, float]) -> List[str]:
    hits = int(counters.get("cache.hit", 0))
    misses = int(counters.get("cache.miss", 0))
    stores = int(counters.get("cache.store", 0))
    lookups = hits + misses
    if lookups == 0:
        return ["cache: no lookups recorded"]
    ratio = hits / lookups
    return [
        f"cache: {hits}/{lookups} hits ({ratio:.1%}), "
        f"{misses} misses, {stores} stores",
    ]


def _spice_section(events: List[Dict], counters: Dict[str, float]) -> List[str]:
    solves = [e for e in events
              if e.get("kind") == "event" and e.get("name") == "spice.solve_dc_batch"]
    lanes = int(counters.get("spice.lanes_solved", 0))
    if not solves and not lanes:
        return ["spice: no batched solves recorded"]
    iters = int(counters.get("spice.newton_lane_iters", 0))
    unconverged = sum(
        int(e["attrs"].get("batch", 0)) - int(e["attrs"].get("n_converged", 0))
        for e in solves
    )
    damped = sum(int(e["attrs"].get("n_damped_steps", 0)) for e in solves)
    singular = sum(int(e["attrs"].get("n_singular", 0)) for e in solves)
    mean_iters = iters / lanes if lanes else 0.0
    return [
        f"spice: {len(solves)} batched solves, {lanes} lanes, "
        f"{mean_iters:.1f} mean Newton iters/lane",
        f"       unconverged lanes {unconverged}, damped steps {damped}, "
        f"singular lanes {singular}",
    ]


def _surrogate_section(events: List[Dict]) -> List[str]:
    builds = [e for e in events
              if e.get("kind") == "event" and e.get("name") == "surrogate.build"]
    if not builds:
        return []
    lines = ["surrogate builds:"]
    rows = []
    for event in builds:
        a = event["attrs"]
        rows.append([
            str(a.get("kind")),
            f"{float(a.get('dur_s', 0.0)):.2f}s",
            f"{a.get('n_kept')}/{a.get('n_sampled')}",
            str(a.get("n_convergence_error")),
            str(a.get("n_low_swing")),
            str(a.get("n_high_rmse")),
            str(a.get("n_out_of_bounds")),
        ])
    lines.extend(_rows_to_table(
        ["kind", "dur", "kept", "conv", "swing", "rmse", "bounds"],
        rows,
    ))
    return lines


def _training_section(events: List[Dict]) -> List[str]:
    """Summarize lane training: batches, epochs, shrinks.

    Reads the per-batch ``lanes.run`` events, the ``train.early_stop``
    events and the ``lanes.shrink`` active-set trajectory emitted by
    :func:`repro.core.lanes.train_pnn_lanes`; every training run is a lane
    batch, so each is stated once.
    """
    runs = [e["attrs"] for e in events
            if e.get("kind") == "event" and e.get("name") == "lanes.run"]
    if not runs:
        return []
    trained = sum(int(a.get("n_lanes", 0)) for a in runs)
    epochs = sum(int(a.get("epochs_run", 0)) for a in runs)
    lane_epochs = sum(int(a.get("lane_epochs", 0)) for a in runs)
    shrinks = sum(int(a.get("shrink_events", 0)) for a in runs)
    early = sum(1 for e in events
                if e.get("kind") == "event" and e.get("name") == "train.early_stop")
    saved = lane_epochs / epochs if epochs else 0.0
    lines = [
        f"training: {len(runs)} lane batches, {trained} jobs trained in lanes, "
        f"{early} early-stopped",
        f"          {epochs} lockstep epochs covering {lane_epochs} "
        f"lane-epochs ({saved:.1f}x amortization), "
        f"{shrinks} active-set shrinks",
    ]
    shrink_events = [e for e in events
                     if e.get("kind") == "event" and e.get("name") == "lanes.shrink"]
    if shrink_events:
        trajectory = ", ".join(
            f"epoch {e['attrs'].get('epoch')}: "
            f"{e['attrs'].get('active')} active (-{e['attrs'].get('stopped')})"
            for e in shrink_events[:8]
        )
        suffix = ", ..." if len(shrink_events) > 8 else ""
        lines.append(f"          shrink trajectory: {trajectory}{suffix}")
    return lines


def _scenario_section(events: List[Dict], counters: Dict[str, float]) -> List[str]:
    """Per-scenario robustness grid of the run's trained jobs.

    Groups ``job.done`` events by their non-ideality scenario and renders
    a Table-II-style grid (setup × ϵ_train → jobs, mean best val loss)
    per scenario, plus the stuck-at defect-injection counters.  Runs
    recorded before scenarios existed have no ``scenario`` attribute and
    produce no section.
    """
    jobs = [e for e in events
            if e.get("kind") == "event" and e.get("name") == "job.done"
            and e["attrs"].get("scenario") is not None]
    scenarios = list(dict.fromkeys(e["attrs"]["scenario"] for e in jobs))
    lines: List[str] = []
    if scenarios and scenarios != ["default"]:
        lines.append("scenarios:")
        for scenario in scenarios:
            members = [e for e in jobs if e["attrs"]["scenario"] == scenario]
            cells: Dict[tuple, List[float]] = {}
            for event in members:
                a = event["attrs"]
                key = (_setup_label(bool(a.get("learnable")), bool(a.get("variation_aware"))),
                       float(a.get("train_eps", 0.0)))
                cells.setdefault(key, []).append(float(a.get("val_loss", float("nan"))))
            rows = [
                [scenario, setup, f"{eps:.0%}", str(len(losses)),
                 f"{min(losses):.4f}"]
                for (setup, eps), losses in sorted(cells.items())
            ]
            lines.extend(_rows_to_table(
                ["scenario", "setup", "eps", "jobs", "best_val_loss"], rows,
            ))
    applied = int(counters.get("defects.applied", 0))
    sampled = int(counters.get("defects.sampled", 0))
    if sampled:
        rate = applied / sampled
        lines.append(
            f"defects: {applied}/{sampled} devices stuck ({rate:.2%} injection rate)"
        )
    return lines


def _export_section(events: List[Dict], counters: Dict[str, float]) -> List[str]:
    """Hardware-deploy export activity: tiling, closed-loop verification.

    Summarizes ``export.tile`` / ``export.verify`` spans, the deploy
    counters, and per-design ``export.deploy`` events (tile count,
    utilization, area/power estimates, model-load vs invoke timing
    split).  Runs without export activity produce no section.
    """
    tile_spans = [e for e in events
                  if e.get("kind") == "span" and e.get("name") == "export.tile"]
    verify_spans = [e for e in events
                    if e.get("kind") == "span" and e.get("name") == "export.verify"]
    deploys = [e for e in events
               if e.get("kind") == "event" and e.get("name") == "export.deploy"]
    verifies = [e for e in events
                if e.get("kind") == "event" and e.get("name") == "export.verify"]
    tiles = int(counters.get("export.tiles", 0))
    if not tile_spans and not verify_spans and not deploys:
        return []
    devices = int(counters.get("export.devices", 0))
    failures = int(counters.get("export.verify_failures", 0))
    skipped = int(counters.get("export.skipped_devices", 0))
    load_bearing = int(counters.get("export.load_bearing_skips", 0))
    lanes = int(counters.get("export.verify_lanes", 0))
    lines = [
        f"export: {len(tile_spans)} tilings ({tiles} tiles, {devices} devices), "
        f"{len(verify_spans)} closed-loop verifications ({lanes} operating points)",
    ]
    if skipped or load_bearing:
        lines.append(
            f"        skipped devices: {skipped} ({load_bearing} load-bearing)"
        )
    lines.append(
        f"        verification failures: {failures}"
        + ("" if failures == 0 else " — deploy gate would FAIL")
    )
    if verifies:
        worst = max(
            float(e["attrs"].get("max_output_divergence", 0.0)) for e in verifies
        )
        load_s = sum(float(e["attrs"].get("model_load_s", 0.0)) for e in verifies)
        invoke_s = sum(float(e["attrs"].get("invoke_s", 0.0)) for e in verifies)
        lines.append(
            f"        worst output divergence: {worst:.3g} V, "
            f"model load {load_s:.2f}s vs invoke {invoke_s:.2f}s"
        )
    if deploys:
        rows = []
        for event in deploys:
            a = event["attrs"]
            rows.append([
                "-".join(str(s) for s in a.get("topology", [])),
                str(a.get("spec")),
                str(a.get("tiles")),
                f"{float(a.get('utilization', 0.0)):.0%}",
                f"{float(a.get('area_mm2', 0.0)):.0f}",
                f"{float(a.get('static_power_uw', 0.0)):.0f}",
                "pass" if a.get("passed") else "FAIL",
            ])
        lines.extend(_rows_to_table(
            ["topology", "tiles", "n", "util", "area_mm2", "power_uw", "verify"],
            rows,
        ))
    return lines


def _failure_lines(events: List[Dict]) -> List[str]:
    """The header lines of a run that died: the ``pool.broken`` event.

    :func:`~repro.experiments.parallel.run_table2_parallel` records it,
    naming every job that did not finish, before it re-raises the
    ``BrokenProcessPool``.
    """
    lines: List[str] = []
    for event in events:
        if event.get("kind") == "event" and event.get("name") == "pool.broken":
            a = event["attrs"]
            lines.append(f"FAILED: a training worker died; {a.get('n_lost')} of "
                         f"{a.get('n_jobs')} jobs did not finish:")
            lines.extend(f"  {label}" for label in a.get("lost", []))
    return lines


def render_telemetry_report(
    directory: Union[str, os.PathLike], top: int = 10
) -> str:
    """Render the aggregate telemetry summary of the run at ``directory``.

    Parameters
    ----------
    directory:
        A telemetry directory (per-process ``events-*.jsonl`` and/or a
        merged ``events.jsonl``, plus an optional ``manifest.json``).
    top:
        How many of the slowest jobs to list.
    """
    events = read_events(directory)
    if not events:
        return f"no telemetry events found under {directory}"
    summary = summarize_events(events)
    counters = summary["counters"]

    lines: List[str] = [f"telemetry report: {directory}"]
    manifest = read_manifest(directory)
    if manifest:
        sha = manifest.get("git_sha") or "unknown"
        profile = manifest.get("profile", "?")
        lines.append(
            f"run: profile={profile} git={str(sha)[:12]} "
            f"python={manifest.get('python', '?')}"
        )
    lines.append(f"events: {len(events)} records from "
                 f"{len({e.get('pid') for e in events})} process(es)")
    lines.extend(_failure_lines(events))
    lines.append("")

    for section in (
        _job_section(events, top),
        _worker_section(events),
        _cache_section(counters),
        _spice_section(events, counters),
        _surrogate_section(events),
        _training_section(events),
        _scenario_section(events, counters),
        _export_section(events, counters),
    ):
        if section:
            lines.extend(section)
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
