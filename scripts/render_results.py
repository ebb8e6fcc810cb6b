"""Render Table II / Table III / §IV-D from a saved results JSON.

Usage:  python scripts/render_results.py artifacts/table2_fast.json
"""

import json
import sys

from repro.experiments import (
    improvement_summary,
    render_table2,
    render_table3,
)
from repro.experiments.config import Setup
from repro.experiments.runner import CellResult


def cell_row(cell: CellResult) -> dict:
    """One results-JSON row of ``cell``: the fields :func:`load_cells` reads."""
    return dict(
        dataset=cell.dataset, learnable=cell.setup.learnable, va=cell.setup.variation_aware,
        eps=cell.eps_test, mean=cell.mean, std=cell.std, seed=cell.best_seed,
        val_loss=cell.best_val_loss,
    )


def load_cells(path: str):
    with open(path) as handle:
        payload = json.load(handle)
    return [
        CellResult(
            dataset=row["dataset"],
            setup=Setup(learnable=row["learnable"], variation_aware=row["va"]),
            eps_test=row["eps"],
            mean=row["mean"],
            std=row["std"],
            best_seed=row["seed"],
            best_val_loss=row["val_loss"],
        )
        for row in payload
    ]


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "artifacts/table2_fast.json"
    cells = load_cells(path)
    datasets = sorted({cell.dataset for cell in cells})
    print(f"{len(cells)} cells over {len(datasets)} datasets\n")
    print(render_table2(cells))
    print()
    print(render_table3(cells))
    print()
    for summary in improvement_summary(cells).values():
        print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
