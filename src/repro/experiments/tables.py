"""Rendering of Table II and Table III from cell results."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.variation import DEFAULT_SCENARIO, SCENARIOS
from repro.datasets.registry import DISPLAY_NAMES
from repro.experiments.config import TEST_EPSILONS
from repro.experiments.runner import CellResult

#: Column order of Table II: (learnable, variation-aware, eps).
TABLE2_COLUMNS: Tuple[Tuple[bool, bool, float], ...] = tuple(
    (learnable, variation_aware, eps)
    for learnable in (False, True)
    for variation_aware in (False, True)
    for eps in TEST_EPSILONS
)


def _cell_index(results: List[CellResult]) -> Dict[Tuple[str, bool, bool, float], CellResult]:
    index = {}
    for cell in results:
        key = (cell.dataset, cell.setup.learnable, cell.setup.variation_aware, cell.eps_test)
        index[key] = cell
    return index


def render_table2(results: List[CellResult]) -> str:
    """Format results like Table II (datasets × 8 columns, plus the average)."""
    index = _cell_index(results)
    datasets = list(dict.fromkeys(cell.dataset for cell in results))

    header_groups = (
        "Non-learnable/Nominal", "Non-learnable/Var-aware",
        "Learnable/Nominal", "Learnable/Var-aware",
    )
    lines = []
    title = f"{'Dataset':26s}"
    for group in header_groups:
        title += f"{group + ' 5%':>22s}{group + ' 10%':>23s}"
    lines.append(title)
    lines.append("-" * len(title))

    sums = np.zeros((len(TABLE2_COLUMNS), 2))
    counts = np.zeros(len(TABLE2_COLUMNS))
    for dataset in datasets:
        row = f"{DISPLAY_NAMES.get(dataset, dataset):26s}"
        for j, (learnable, variation_aware, eps) in enumerate(TABLE2_COLUMNS):
            cell = index.get((dataset, learnable, variation_aware, eps))
            if cell is None:
                row += f"{'—':>22s}"
                continue
            row += f"{cell.mean:>14.3f} ± {cell.std:.3f}"
            sums[j] += (cell.mean, cell.std)
            counts[j] += 1
        lines.append(row)

    lines.append("-" * len(title))
    average = f"{'Average':26s}"
    for j in range(len(TABLE2_COLUMNS)):
        if counts[j]:
            mean, std = sums[j] / counts[j]
            average += f"{mean:>14.3f} ± {std:.3f}"
        else:
            average += f"{'—':>22s}"
    lines.append(average)
    return "\n".join(lines)


def split_by_scenario(results: List[CellResult]) -> Dict[str, List[CellResult]]:
    """Partition cell results by scenario, preserving first-appearance order.

    Results produced before scenarios existed (or by ``run_cell``) all
    carry the default scenario and land in one bucket, so the split
    is a no-op for historical result sets.
    """
    buckets: Dict[str, List[CellResult]] = {}
    for cell in results:
        buckets.setdefault(cell.scenario, []).append(cell)
    return buckets


def render_scenario_grid(results: List[CellResult]) -> str:
    """Table-II-style robustness grid, one section per scenario.

    A single-scenario result set renders exactly like
    :func:`render_table2` (no section headers), so default runs keep
    their historical output byte for byte.
    """
    buckets = split_by_scenario(results)
    if list(buckets) == [DEFAULT_SCENARIO]:
        return render_table2(results)
    sections = []
    for scenario, cells in buckets.items():
        described = SCENARIOS.get(scenario)
        header = f"=== scenario: {scenario} ==="
        if described is not None:
            header += f"  ({described.description})"
        sections.append(header + "\n" + render_table2(cells))
    return "\n\n".join(sections)


def summarize_table3(results: List[CellResult]) -> Dict[Tuple[bool, bool, float], Tuple[float, float]]:
    """Average accuracy and std per (learnable, variation-aware, ϵ) setup."""
    buckets: Dict[Tuple[bool, bool, float], List[Tuple[float, float]]] = {}
    for cell in results:
        key = (cell.setup.learnable, cell.setup.variation_aware, cell.eps_test)
        buckets.setdefault(key, []).append((cell.mean, cell.std))
    summary = {}
    for key, values in buckets.items():
        arr = np.asarray(values)
        summary[key] = (float(arr[:, 0].mean()), float(arr[:, 1].mean()))
    return summary


def render_table3(results: List[CellResult]) -> str:
    """Format the ablation grid like Table III."""
    summary = summarize_table3(results)
    lines = [
        f"{'Learnable':>10s}{'Var-aware':>11s}{'ϵ=5%':>18s}{'ϵ=10%':>18s}",
        "-" * 57,
    ]
    for learnable, variation_aware in ((True, True), (True, False), (False, True), (False, False)):
        row = f"{'✓' if learnable else '✗':>10s}{'✓' if variation_aware else '✗':>11s}"
        for eps in TEST_EPSILONS:
            value = summary.get((learnable, variation_aware, eps))
            row += f"{value[0]:>9.3f} ± {value[1]:.3f}" if value else f"{'—':>18s}"
        lines.append(row)
    return "\n".join(lines)
