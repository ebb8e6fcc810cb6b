"""End-to-end benchmark of the reproduction: four workloads, golden-checked.

Runs each selected workload in fresh child processes (``child.py``), one at
a time and in-process (no worker pool).  Each child sets the workload up
once and repeats its unit of work for a share of ``--seconds``; the run
reports the median over the children's set-ups and the median over all
units, checks every unit's output against the recorded goldens and
against each other, and prints every metric by name with its unit.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, measured by the outside-in
tracer (``trace.py``), and a Chrome trace is written to ``--trace-dir``.
When several workloads run, the line covers all of them and names each
metric ``<workload>.<metric>``.  ``--seconds`` defaults to ``run_seconds``
of ``BENCHMARK.json``.

Usage (from anywhere; paths are relative to the repository root):

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S] [--seconds N]
                                  [--trace 0|1] [--trace-dir DIR] [--out FILE]
    python3 benchmarks/e2e/run.py --record-golden [--workload NAME]...
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"

#: Child processes per run; ``setup_s`` is the median of their set-ups.
SETUPS = 3

#: A child may run this much longer than its budget (set-up, the last unit,
#: the untimed inspection) before it is stopped, so that a run at the
#: default ``run_seconds`` ends within 180 s even if a child hangs.
CHILD_SLACK_S = 40.0

#: Seconds a :class:`SpeedProbe` chunk takes on the reference host when it
#: is quiet (about the 10th percentile of 100 calls on the host of README.md).
REFERENCE_PROBE_S = 0.0047


class RunError(RuntimeError):
    """A child process failed; the run prints no result."""


class SpeedProbe:
    """How fast this host runs right now, from a fixed piece of work.

    A call times eight chunks, each small-array numpy kernels mixed with
    interpreter work and one pass over a cache-sized (7.8 MB) array, and
    returns the median chunk time, which an interrupt in one chunk does not
    move.  The benchmark's time metrics are scaled by
    ``REFERENCE_PROBE_S / probe``, timed in this process while the child
    pauses before and after each unit: on a shared host the speed a process
    gets drifts by tens of percent over seconds, and the probe slows down
    with it.  The probe never runs in the measured process, so the heap,
    threads and interpreter state the code under test leaves behind do not
    slow it.
    """

    CHUNKS = 8

    def __init__(self):
        self._small = np.linspace(0.0, 1.0, 3 * 10 * 90 * 6).reshape(3, 10, 90, 6)
        self._weights = np.linspace(-1.0, 1.0, 3 * 6 * 3).reshape(3, 1, 6, 3)
        self._large = np.linspace(0.0, 1.0, 100 * 425 * 23)
        self._buffer = np.empty_like(self._large)
        self()  # the first call pays page faults and numpy's first-use costs

    def _chunk(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for step in range(50):
            total += float((np.tanh(self._small * 1.1 + 0.2) @ self._weights).sum())
            table = {i: i * step for i in range(32)}
            total += table[step % 32]
        np.multiply(self._large, 1.1, out=self._buffer)
        np.tanh(self._buffer, out=self._buffer)
        return time.perf_counter() - start

    def __call__(self) -> float:
        return statistics.median(self._chunk() for _ in range(self.CHUNKS))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def attach_probes(result: dict, probes) -> dict:
    """Give a child's set-up and units the mean of the probes timed around them.

    ``probes[0]`` is timed before the child starts, ``probes[1]`` after its
    set-up and ``probes[k + 2]`` after its unit ``k``.
    """
    result["setup_probe_s"] = (probes[0] + probes[1]) / 2
    for k, unit in enumerate(result["units"]):
        unit["probe_s"] = (probes[k + 1] + probes[k + 2]) / 2
    return result


def run_child(workload: str, seed: int, budget: float, trace: bool, probe: SpeedProbe,
              min_units: int = 2) -> dict:
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD))
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TELEMETRY_DIR", "REPRO_ARTIFACTS")}
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--budget", repr(budget), "--trace", str(int(trace)),
               "--workdir", str(workdir), "--min-units", str(min_units)]
    timeout = budget + CHILD_SLACK_S
    expired = threading.Event()
    probes, lines = [probe()], []
    try:
        with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT) as proc:
            timer = threading.Timer(timeout, lambda: (expired.set(), proc.kill()))
            timer.start()
            try:
                for line in proc.stdout:
                    if line == "pause\n":
                        probes.append(probe())
                        proc.stdin.write("go\n")
                        proc.stdin.flush()
                    else:
                        lines.append(line)
                proc.wait()
            finally:
                timer.cancel()
                proc.kill()  # a no-op once the child has exited
    except BrokenPipeError:
        pass  # the child died while paused; its exit code says so below
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if expired.is_set():
        raise RunError(f"{workload}: child exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload}: child exited with code {proc.returncode}")
    return attach_probes(json.loads(lines[-1]), probes)


def check_outputs(workload: str, seed: int, children) -> dict:
    """Attempted and failed operations over every unit of every child."""
    from golden import check

    units = [unit for child in children for unit in child["units"]]
    reference = units[0]["digest"]
    golden_failed, notes = check(workload, seed, children[0]["record"])
    attempted = failed = 0
    for unit in units:
        attempted += unit["ops"]
        if unit["digest"] != reference:
            failed += unit["ops"]
            notes.append(f"{workload}: unit output {unit['digest'][:12]} != first unit "
                         f"{reference[:12]} (non-deterministic)")
        else:
            failed += min(unit["ops"], unit["failed"] + golden_failed)
    for child in children:
        notes.extend(child["problems"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "digest": reference, "notes": notes}


def _speed(probe_s: float) -> float:
    return REFERENCE_PROBE_S / probe_s


def end_to_end(children, scaled: bool = True) -> dict:
    """End-to-end metrics; times in seconds at the reference host speed unless not ``scaled``."""
    untraced = [unit for child in children for unit in child["units"] if not unit["traced"]]

    def unit_median(key):
        return statistics.median(u[key] * (_speed(u["probe_s"]) if scaled else 1.0)
                                 for u in untraced)

    return {
        "setup_s": statistics.median(c["setup_s"] * (_speed(c["setup_probe_s"]) if scaled else 1.0)
                                     for c in children),
        "wall_s": unit_median("wall_s"),
        "cpu_s": unit_median("cpu_s"),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }


def per_layer(children, units_of: dict) -> dict:
    """Per-layer metrics; times and rates (by their ``units_of``) at the reference speed."""
    from trace import layer_metrics

    totals: dict = {}
    for child in children:
        for key, value in child["totals"].items():
            totals[key] = totals.get(key, 0.0) + value
        for key, values in child["samples"].items():
            totals.setdefault(f"samples.{key}", []).extend(values)
    units = [unit for child in children for unit in child["units"]]
    traced = [u for u in units if u["traced"]]
    totals["unit.traced_wall_s"] = sum(u["wall_s"] for u in traced)
    for key, group in (("traced", traced), ("untraced", [u for u in units if not u["traced"]])):
        totals[f"unit.{key}_median_s"] = statistics.median(
            u["wall_s"] * _speed(u["probe_s"]) for u in group)
    speed = statistics.median(_speed(u["probe_s"]) for u in traced)
    scale = {"s": speed, "ms": speed, "1/s": 1.0 / speed}
    return {name: value * scale.get(units_of[name], 1.0)
            for name, value in layer_metrics(totals, len(traced), len(children)).items()}


def write_chrome_trace(path: Path, children) -> None:
    events = []
    for pid, child in enumerate(children):
        for event in child["spans"]:
            events.append({**event, "pid": pid})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def host() -> dict:
    from golden import fingerprint

    return {"nproc": os.cpu_count(), "python": platform.python_version(), **fingerprint()}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path) -> dict:
    probe, children = SpeedProbe(), []
    for index in range(SETUPS):
        # Each child gets an equal share of what is left, so the run measures ~seconds.
        left = seconds - sum(child["measured_s"] for child in children)
        children.append(run_child(workload, seed, max(0.0, left) / (SETUPS - index), trace,
                                  probe))
    outcome = check_outputs(workload, seed, children)
    declared = spec["per_layer" if trace else "end_to_end"]
    values = (per_layer(children, {m["name"]: m["unit"] for m in declared}) if trace
              else end_to_end(children))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if trace:
        for name in sorted({name for child in children for name in child["absent"]}):
            print(f"trace: absent target {name}", file=sys.stderr)
        path = trace_dir / f"{workload}-seed{seed}.trace.json"
        write_chrome_trace(path, children)
        print(f"trace: wrote {path}", file=sys.stderr)
    for note in outcome.pop("notes")[:20]:
        print(f"check: {note}", file=sys.stderr)
    units = [unit for child in children for unit in child["units"]]
    print(f"== {workload} (seed {seed}, {SETUPS} set-ups, {len(units)} units, "
          f"{outcome['failed']}/{outcome['attempted']} operations failed)")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    measured = {"speed": statistics.median(_speed(u["probe_s"]) for u in units)}
    if not trace:
        measured.update(end_to_end(children, scaled=False))
        print(f"host speed {measured['speed']:.3f} of reference; as measured: "
              f"setup {measured['setup_s']:.4g} s, wall {measured['wall_s']:.4g} s, "
              f"cpu {measured['cpu_s']:.4g} s")
    return {**outcome, "metrics": metrics, "measured": measured}


def summary(results: dict) -> dict:
    """The last line of a run: one workload's result, or every workload's together.

    With several workloads, ``correct``, ``attempted`` and ``failed`` cover
    all of them and each metric is named ``<workload>.<metric>``.
    """
    if len(results) == 1:
        return next(iter(results.values()))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{workload}.{name}": metric for workload, r in results.items()
                    for name, metric in r["metrics"].items()},
    }


def record_goldens(workloads) -> None:
    import golden

    probe = SpeedProbe()
    for workload in workloads:
        old = golden.load(workload)
        digests, record = {}, None
        for seed in golden.DIGEST_SEEDS:
            child = run_child(workload, seed, 0.0, False, probe, min_units=1)
            digests[str(seed)] = golden.digest(child["record"])
            if seed == golden.GOLDEN_SEED:
                record = child["record"]
        new = {"workload": workload, "seed": golden.GOLDEN_SEED, "record": record,
               "digests": digests, "fingerprint": golden.fingerprint()}
        if old is None:
            print(f"{workload}: new golden")
        else:
            changes = golden.diff(old["record"], record)
            changes += [f"digest seed {s}" for s in digests if old["digests"].get(s) != digests[s]]
            if old["fingerprint"] != new["fingerprint"]:
                changes.append(f"fingerprint {old['fingerprint']} -> {new['fingerprint']}")
            print(f"{workload}: {len(changes)} change(s)")
            for change in changes:
                print(f"  {change}")
        print(f"{workload}: wrote {golden.save(workload, new)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: training seeds S..S+2, MC, QMC and deploy seeds")
    parser.add_argument("--seconds", type=float, help="measured time per workload "
                        "(default: run_seconds of BENCHMARK.json; compare.py refuses to "
                        "compare runs of different lengths)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--trace-dir", type=Path, default=BUILD / "traces",
                        help="where --trace 1 writes its Chrome trace")
    parser.add_argument("--out", type=Path, help="append each workload's result as a JSON line")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden/<workload>.json and print what changed")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 0:
        parser.error("--seconds must not be negative")
    # A terminated run stops its child too: run_child kills it on the exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    try:
        if args.record_golden:
            record_goldens(workloads)
            return 0
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        results = {}
        for workload in workloads:
            result = run_workload(spec, workload, args.seed, seconds, bool(args.trace),
                                  args.trace_dir)
            extra = {"digest": result.pop("digest"), "measured": result.pop("measured")}
            if args.out is not None:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": args.seed,
                                             "trace": args.trace, "seconds": seconds,
                                             "host": host(), **extra, **result}) + "\n")
            results[workload] = result
        print(json.dumps(summary(results)), flush=True)
    except RunError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
