"""One measured process of a benchmark run.

``run.py`` starts this script once per set-up it measures.  The process
sets up its workload, then repeats the workload's unit until its time
budget is spent (at least ``--min-units`` times), and prints one JSON
object on the last line of standard output: set-up time, every unit's
wall and CPU time and output digest, the first unit's record, the
problems found, peak RSS and, with ``--trace 1``, the tracer's totals and
spans.  With tracing on, units alternate untraced and traced, so that the
run also measures the tracer's own overhead.

After set-up and after every unit, outside the timed intervals, the
process writes ``pause`` to standard output and waits for ``go`` on
standard input: meanwhile ``run.py`` times its speed probe in its own
process, where the code under test cannot affect it.

Usage: python3 benchmarks/e2e/child.py --workload NAME --seed S --budget SECONDS
       --trace 0|1 --workdir DIR [--min-units N]
"""

import time

_T0 = time.perf_counter()  # setup_s starts here, before anything of repro is imported

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure(workload, seed: int, budget_s: float, trace: bool, workdir: Path,
            min_units: int = 2, sizes=None, t0=None, pause=lambda: None) -> dict:
    """Set up ``workload`` and repeat its unit for ``budget_s`` seconds.

    ``sizes`` overrides the workload's default sizes.  ``t0`` is the clock
    reading set-up time starts from (default: now).  ``pause()`` is called
    after set-up and after every unit, outside the timed intervals.
    """
    from golden import canonical, digest
    from trace import Tracer

    t0 = time.perf_counter() if t0 is None else t0
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        state = workload.setup(seed, workdir, **{**workload.sizes, **(sizes or {})})
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t0
    pause()

    units, problems, record = [], [], None
    start = time.perf_counter()
    while True:
        index = len(units)
        traced = tracer is not None and index % 2 == 1
        scratch = Path(tempfile.mkdtemp(prefix="unit-", dir=workdir))
        if traced:
            tracer.begin(f"unit-{index}")
            tracer.install()
        try:
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            unit_record, unit_problems = workload.run(state, scratch)
            wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        finally:
            if traced:
                tracer.uninstall()
            shutil.rmtree(scratch, ignore_errors=True)
        pause()
        unit_record = canonical(unit_record)
        record = record or unit_record
        problems.extend(reason for _, reason in unit_problems)
        units.append({
            "wall_s": wall, "cpu_s": cpu, "traced": traced, "digest": digest(unit_record),
            "ops": len(unit_record["ops"]),
            "failed": len({i for i, _ in unit_problems if i is not None})
            + sum(1 for i, _ in unit_problems if i is None),
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(u["wall_s"] for u in units)
        if len(units) >= min_units and elapsed + typical > budget_s:
            break
    measured_s = time.perf_counter() - start

    if workload.inspect is not None:
        # Untimed: values the unit's public calls compute but do not return.
        record = {**record, "inspect": canonical(workload.inspect(state))}
    result = {
        "setup_s": setup_s,
        "measured_s": measured_s,
        "units": units,
        "record": record,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update({
            "totals": {
                **tracer.totals["units"],
                **{f"setup.{k}": v for k, v in tracer.totals["setup"].items()},
            },
            "samples": dict(tracer.samples),
            "spans": tracer.chrome_trace(),
            "absent": tracer.absent,
        })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--min-units", type=int, default=2)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    out = sys.stdout
    sys.stdout = sys.stderr  # only the protocol lines go to standard output
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    def pause():
        out.write("pause\n")
        out.flush()
        if sys.stdin.readline() != "go\n":
            raise SystemExit("run.py went away")

    result = measure(WORKLOADS[args.workload], args.seed, args.budget, bool(args.trace),
                     args.workdir, min_units=args.min_units, t0=_T0, pause=pause)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
