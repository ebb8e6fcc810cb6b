"""The committed Table-II results round-trip through the script helpers.

``scripts/run_table2_fast.py`` writes each cell of
``artifacts/table2_fast.json`` through ``render_results.cell_row``, and
``render_results.load_cells`` reads the file back for the renderer and
``finalize_experiments_md.py``: writing the loaded cells again must give
every committed row unchanged.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "artifacts" / "table2_fast.json"


def render_results():
    spec = importlib.util.spec_from_file_location(
        "render_results", REPO / "scripts" / "render_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_results_round_trip():
    module = render_results()
    rows = json.loads(RESULTS.read_text())
    assert len(rows) == 64
    assert [module.cell_row(cell) for cell in module.load_cells(str(RESULTS))] == rows
