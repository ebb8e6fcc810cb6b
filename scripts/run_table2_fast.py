"""Fast-profile Table II run with the NN surrogate bundle.

Cache-aware and parallel: pass a worker count as the first argument
(default 1).  A killed or partial run restarts from the persistent result
cache in ``artifacts/table2_cache``: a re-run trains only the missing jobs.
After each dataset the script rewrites ``artifacts/table2_fast.json``
with every cell so far, one :func:`render_results.cell_row` per cell.

Usage:  python scripts/run_table2_fast.py [workers]
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from render_results import cell_row  # noqa: E402 - same directory
from repro import default_artifacts_dir, get_default_bundle  # noqa: E402
from repro.datasets import DATASET_NAMES  # noqa: E402
from repro.experiments import (  # noqa: E402
    PROFILES,
    ResultCache,
    improvement_summary,
    render_table2,
    render_table3,
    run_table2_parallel,
)

WORKERS = int(sys.argv[1]) if len(sys.argv) > 1 else 1

t0 = time.time()
bundle = get_default_bundle()
cfg = PROFILES["fast"]
cache = ResultCache(default_artifacts_dir() / "table2_cache")
all_results = []
for name in DATASET_NAMES:
    t1 = time.time()
    res = run_table2_parallel([name], cfg, surrogates=bundle, workers=WORKERS, cache=cache)
    all_results.extend(res)
    print(f"[{time.time()-t0:7.0f}s] {name} done in {time.time()-t1:.0f}s", flush=True)
    with open("artifacts/table2_fast.json", "w") as f:
        json.dump([cell_row(c) for c in all_results], f, indent=1)

print(render_table2(all_results))
print()
print(render_table3(all_results))
for s in improvement_summary(all_results).values():
    print(s)
