"""Aggregate, human-readable view of a telemetry run, and its health.

:func:`render_telemetry_report` turns the JSONL event stream of one run
(``repro.telemetry``) into a header (the run manifest, the record count
and, for a run whose training pool broke, the jobs it lost), a health
block and three generic tables built from
:func:`~repro.telemetry.summarize_events`: spans (with the slowest span
records and their attributes), counters, and events (with the sum and
maximum of each numeric attribute).  Nothing is written per feature: a
newly instrumented layer shows up in the tables as it is.

The health block evaluates :data:`HEALTH_RULES`.  Exposed on the command
line as::

    python -m repro.experiments.cli report --telemetry <dir>

which exits 1 when a rule fails, so a run is gated on its own telemetry.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.telemetry import read_manifest, read_events, summarize_events


class HealthRule(NamedTuple):
    """One summary value of a run that must be zero.

    With ``attr`` the value is the sum of that attribute over the run's
    ``name`` events; without it, ``name`` is a counter.  A run that never
    reached the instrumented code records nothing and passes.
    """

    label: str
    name: str
    attr: Optional[str] = None


#: What a healthy run never records.
HEALTH_RULES = (
    HealthRule("unconverged Newton lanes", "spice.solve_dc_batch", "n_unconverged"),
    HealthRule("jobs lost to a dead worker", "pool.broken", "n_lost"),
    HealthRule("failed deploy verifications", "export.verify_failures"),
    HealthRule("load-bearing devices skipped at export", "export.load_bearing_skips"),
    HealthRule("lanes without a finite validation loss", "lanes.run", "n_nonfinite"),
)


def check_health(summary: Dict) -> List[Tuple[HealthRule, float]]:
    """Each of :data:`HEALTH_RULES` with its value in ``summary``.

    ``summary`` is a :func:`~repro.telemetry.summarize_events` result; a
    rule fails when its value is not zero.
    """
    checks = []
    for rule in HEALTH_RULES:
        if rule.attr is None:
            value = summary["counters"].get(rule.name, 0)
        else:
            value = summary["attrs"].get(rule.name, {}).get(rule.attr, {}).get("sum", 0)
        checks.append((rule, value))
    return checks


def _fmt(value) -> str:
    value = float(value)
    return str(int(value)) if value.is_integer() else f"{value:.4g}"


def _rows_to_table(header: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return [fmt.format(*row).rstrip()
            for row in [header, ["-" * w for w in widths], *rows]]


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


def _span_lines(events: List[Dict], spans: Dict, top: int) -> List[str]:
    rows = [
        [name, str(stat["count"]), f"{stat['total_s']:.3f}", f"{stat['max_s']:.3f}"]
        for name, stat in sorted(spans.items())
    ]
    lines = _rows_to_table(["span", "count", "total_s", "max_s"], rows)
    records = sorted((e for e in events if e.get("kind") == "span"),
                     key=lambda e: -float(e.get("dur_s", 0.0)))[:top]
    lines += ["", f"slowest {len(records)} spans:"]
    lines += _rows_to_table(
        ["span", "dur_s", "pid", "attributes"],
        [[e["name"], f"{float(e.get('dur_s', 0.0)):.3f}", str(e.get("pid")),
          " ".join(f"{k}={v}" for k, v in sorted((e.get("attrs") or {}).items()))]
         for e in records],
    )
    return lines


def _event_lines(summary: Dict) -> List[str]:
    rows = []
    for name, count in sorted(summary["events"].items()):
        attrs = summary["attrs"].get(name, {})
        if not attrs:
            rows.append([name, str(count), "", "", ""])
        rows.extend(
            [name, str(count), attr, _fmt(stat["sum"]), _fmt(stat["max"])]
            for attr, stat in sorted(attrs.items())
        )
    return _rows_to_table(["event", "count", "attribute", "sum", "max"], rows)


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
        How many of the slowest span records to list.

    Raises
    ------
    FileNotFoundError
        When ``directory`` holds no telemetry events.
    """
    events = read_events(directory)
    if not events:
        raise FileNotFoundError(f"no telemetry events found under {directory}")
    summary = summarize_events(events)

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

    lines += ["", "health:"]
    for rule, value in check_health(summary):
        source = f"{rule.name}.{rule.attr}" if rule.attr else rule.name
        lines.append(f"  {'FAIL' if value else 'ok':<4}  {rule.label} "
                     f"({source}): {_fmt(value)}")

    if summary["spans"]:
        lines += [""] + _span_lines(events, summary["spans"], top)
    if summary["counters"]:
        lines += [""] + _rows_to_table(
            ["counter", "total"],
            [[name, _fmt(n)] for name, n in sorted(summary["counters"].items())],
        )
    lines += [""] + _event_lines(summary)
    return "\n".join(lines) + "\n"
