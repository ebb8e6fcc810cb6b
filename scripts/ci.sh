#!/usr/bin/env bash
# CI entry point: tier-1 tests, a 2-worker Table-II run on one dataset
# with the real surrogate bundle and its 1-worker resume from the result
# cache, then the end-to-end benchmark's tests and a correctness-only run
# of it.  Each Table-II run is gated by its own telemetry: `cli report`
# exits 1 when a health rule of repro.experiments.report.HEALTH_RULES
# fails.  Lint is separate: `make lint`, and the `lint` job of
# .github/workflows/ci.yml, which this script's CI job waits for.
#
#   bash scripts/ci.sh          # or: make verify
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

# CI sets CI_SMOKE_KEEP_DIR to a workspace path so the telemetry event
# streams survive the run and can be uploaded as build artifacts; local
# runs keep the self-cleaning mktemp behaviour.
if [ -n "${CI_SMOKE_KEEP_DIR:-}" ]; then
    SMOKE_ROOT="$CI_SMOKE_KEEP_DIR"
    mkdir -p "$SMOKE_ROOT"
else
    SMOKE_ROOT="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_ROOT"' EXIT
fi
CACHE_DIR="$SMOKE_ROOT/table2_cache"
TEL_RUN="$SMOKE_ROOT/telemetry_run"
TEL_RESUME="$SMOKE_ROOT/telemetry_resume"

echo "== table2 smoke (2 workers, fresh cache, telemetry on) =="
python -m repro.experiments.cli table2 --profile smoke --datasets iris \
    --workers 2 --cache-dir "$CACHE_DIR" --telemetry "$TEL_RUN"
python -m repro.experiments.cli report --telemetry "$TEL_RUN" --top 5

echo "== resume (1 worker, same cache, telemetry on) =="
python -m repro.experiments.cli table2 --profile smoke --datasets iris \
    --workers 1 --cache-dir "$CACHE_DIR" --resume --telemetry "$TEL_RESUME"
python -m repro.experiments.cli report --telemetry "$TEL_RESUME" --top 5

echo "== end-to-end benchmark tests =="
python -m pytest benchmarks/e2e -q

echo "== end-to-end benchmark, correctness only (goldens, digests, failed operations; no timing gate) =="
# run.py exits 0 whether or not its outputs are correct; the verdict is
# the JSON object on its last line.
E2E_LAST="$(python3 benchmarks/e2e/run.py --seconds 0 | tail -n 1)"
E2E_LAST="$E2E_LAST" python - <<'EOF'
import json
import os

result = json.loads(os.environ["E2E_LAST"])
assert result["correct"] is True, "e2e benchmark: outputs are not correct"
assert result["failed"] == 0, f"e2e benchmark: {result['failed']} operations failed"
print(f"e2e OK: {result['attempted']} operations, 0 failed, outputs correct")
EOF

echo "CI OK"
