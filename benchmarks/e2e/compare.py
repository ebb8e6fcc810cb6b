"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage: python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are files written by ``run.py --out FILE`` (one JSON line per
run), or directories of such ``*.jsonl`` files.  Run both sides with the
same benchmark code and run length, ideally alternating and at the same
seeds.  For every end-to-end metric of ``BENCHMARK.json`` and every
workload, both sides' median and quartiles are printed with one verdict:

- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side is wider than the metric's bound, and not every run of NEW
  reads better than every run of BASE (those read ``improved``);
- ``regressed``: NEW's median is worse than BASE's by more than the bound;
- ``improved``: NEW wins at least nine tenths of at least ten runs paired
  by seed, and the medians differ by more than BASE's quartile distance;
- ``within bound``: otherwise.

Per-layer metrics (runs made with ``--trace 1``) are printed for reading,
without a verdict.  The exit status is 1 when a metric regressed, when
NEW failed more operations than BASE, when the two sides' output digests
differ at a seed both ran, or when the runs do not all share one
``seconds`` (nothing is compared then).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]

#: Fewer seed-paired runs than this never read ``improved``.
MIN_PAIRS = 10


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    return [json.loads(line) for file in files for line in file.read_text().splitlines()
            if line.strip()]


def quartiles(values: Sequence[float]):
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: List[tuple], new: List[tuple], bound: float, better: str) -> str:
    """Verdict for one metric; ``base``/``new`` are ``(seed, value)`` pairs."""
    sign = 1.0 if better == "lower" else -1.0
    b = [sign * v for _, v in base]
    n = [sign * v for _, v in new]
    everywhere_better = max(n) < min(b)
    if max(spread(b), spread(n)) > bound:
        return "improved" if everywhere_better else "unresolved"
    q1_b, med_b, q3_b = quartiles(b)
    med_n = quartiles(n)[1]
    if (med_n - med_b) / abs(med_b) > bound:
        return "regressed"
    by_seed = defaultdict(lambda: ([], []))
    for seed, value in base:
        by_seed[seed][0].append(sign * value)
    for seed, value in new:
        by_seed[seed][1].append(sign * value)
    pairs = [(x, y) for xs, ys in by_seed.values() for x, y in zip(xs, ys)]
    wins = sum(1 for x, y in pairs if y < x)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and med_b - med_n > q3_b - q1_b:
        return "improved"
    return "within bound"


def compare(base_runs: List[dict], new_runs: List[dict], spec: dict):
    """Printable lines and whether NEW must be rejected."""
    lines, reject = [], False
    lengths = sorted({r["seconds"] for r in base_runs + new_runs})
    if len(lengths) > 1:
        return [f"runs of different lengths {lengths} s: rerun both sides at one --seconds"], True
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in workloads:
            base = [r for r in base_runs if r["workload"] == workload and r["trace"] == trace]
            new = [r for r in new_runs if r["workload"] == workload and r["trace"] == trace]
            if not base or not new:
                continue
            lines.append(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
                         f"{len(base)} base runs, {len(new)} new runs)")
            for metric in declared:
                name = metric["name"]
                b = [(r["seed"], r["metrics"][name]["value"]) for r in base if name in r["metrics"]]
                n = [(r["seed"], r["metrics"][name]["value"]) for r in new if name in r["metrics"]]
                if not b or not n:
                    lines.append(f"{name:32s} missing on one side")
                    continue
                q_b = quartiles([v for _, v in b])
                q_n = quartiles([v for _, v in n])
                change = (q_n[1] - q_b[1]) / abs(q_b[1]) if q_b[1] else float("nan")
                result = "-"
                if "bound" in metric:
                    result = verdict(b, n, metric["bound"], metric["better"])
                    reject |= result == "regressed"
                lines.append(
                    f"{name:32s} base {q_b[1]:.6g} [{q_b[0]:.6g}, {q_b[2]:.6g}]  "
                    f"new {q_n[1]:.6g} [{q_n[0]:.6g}, {q_n[2]:.6g}]  "
                    f"{change:+.1%} {metric['unit']}  {result}")
            failed_b = sum(r["failed"] for r in base) / max(1, sum(r["attempted"] for r in base))
            failed_n = sum(r["failed"] for r in new) / max(1, sum(r["attempted"] for r in new))
            if failed_n > failed_b:
                lines.append(f"operations failed: base {failed_b:.3%}, new {failed_n:.3%}  regressed")
                reject = True
    digests: Dict[tuple, set] = defaultdict(set)
    for side, runs in (("base", base_runs), ("new", new_runs)):
        for r in runs:
            digests[(r["workload"], r["seed"], side)].add(r["digest"])
    for workload, seed, side in sorted(digests):
        if side == "base" and (workload, seed, "new") in digests:
            if digests[(workload, seed, "base")] != digests[(workload, seed, "new")]:
                lines.append(f"output digest changed: {workload} seed {seed}")
                reject = True
    return lines, reject


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, reject = compare(load_runs(args.base), load_runs(args.new), spec)
    print("\n".join(lines))
    print("verdict: REJECT" if reject else "verdict: no regression")
    return 1 if reject else 0


if __name__ == "__main__":
    sys.exit(main())
