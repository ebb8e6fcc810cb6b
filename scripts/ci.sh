#!/usr/bin/env bash
# CI entry point: tier-1 tests + a 2-worker smoke Table-II run on one
# dataset, so the parallel/cache path is exercised end-to-end on every PR,
# then the end-to-end benchmark's tests and a correctness-only run of it.
#
#   bash scripts/ci.sh          # or: make verify
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint (ruff) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests
else
    echo "ruff not installed; skipping lint (CI installs it)"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

# The smoke stages below share one workspace.  CI sets CI_SMOKE_KEEP_DIR
# to a workspace path so the telemetry event streams survive the run and
# can be uploaded as build artifacts; local runs keep the self-cleaning
# mktemp behaviour.  (The surrogate build is checked against its recorded
# slice, with telemetry on and off, by tier-1:
# tests/surrogate/test_characterization_reference.py.)
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

echo "== lane-equality smoke (3-lane batch vs one-lane batches, telemetry-gated) =="
TEL_LANES="$SMOKE_ROOT/telemetry_lanes"
TEL_LANES="$TEL_LANES" python - <<'EOF'
import os
import numpy as np
from repro import telemetry
from repro.experiments import (
    ExperimentConfig,
    enumerate_jobs,
    execute_job_lanes,
    group_jobs_into_lanes,
    run_table2_parallel,
)
from repro.experiments.runner import default_surrogates

# Three seeds with a short patience so lanes early-stop at *different*
# epochs — the active stack must shrink mid-run, not just at the end.
# (The CLI cannot override seeds, hence this scripted invocation.)
cfg = ExperimentConfig(seeds=(1, 2, 3), max_epochs=150, patience=6,
                       n_mc_train=5, n_test=10, max_train=120)
sur = default_surrogates()

batch = next(b for b in group_jobs_into_lanes(enumerate_jobs(["iris"], cfg))
             if b[0].learnable and b[0].variation_aware)
one_lane = [execute_job_lanes([key], cfg, sur)[0] for key in batch]

tel = telemetry.enable(os.environ["TEL_LANES"], manifest={"command": "ci-lane-smoke"})
laned = execute_job_lanes(batch, cfg, sur)
run_table2_parallel(["iris"], cfg, surrogates=sur, workers=1)
telemetry.disable()

# Gate 1: per-lane bit-identity — losses, epochs and trained parameters.
for s, l in zip(one_lane, laned):
    assert l.key == s.key
    assert l.val_loss == s.val_loss, (s.key, s.val_loss, l.val_loss)
    assert l.best_epoch == s.best_epoch and l.epochs_run == s.epochs_run
    for sl, ll in zip(s.params.layers, l.params.layers):
        assert np.array_equal(sl.theta, ll.theta)
        assert np.array_equal(sl.act_omega, ll.act_omega)
        assert np.array_equal(sl.neg_omega, ll.neg_omega)
assert len({r.epochs_run for r in one_lane}) > 1, \
    "smoke config regression: lanes no longer stop at different epochs"

# Gate 2 (telemetry): every planned batch stacked more than one lane —
# grouping did not degenerate — and the active-lane count actually shrank
# mid-run.
events = telemetry.read_events(os.environ["TEL_LANES"])
counters = telemetry.summarize_events(events)["counters"]
widths = [w for e in events if e["kind"] == "event" and e["name"] == "lanes.plan"
          for w in e["attrs"]["widths"]]
assert widths and min(widths) > 1, f"lane grouping degenerated: batch widths {widths}"
assert int(counters.get("lanes.trained", 0)) >= len(batch)
shrinks = [e for e in events if e["kind"] == "event" and e["name"] == "lanes.shrink"]
assert shrinks, "no lanes.shrink events recorded"
assert any(int(e["attrs"]["active"]) > 0 for e in shrinks), \
    "active set only ever emptied wholesale — no mid-run shrink observed"
runs = [e for e in events if e["kind"] == "event" and e["name"] == "lanes.run"]
assert runs and all(int(e["attrs"]["lane_epochs"]) > 0 for e in runs)
print(f"lane smoke OK: {len(one_lane)} lanes bitwise equal to one-lane runs "
      f"(stops at epochs {sorted(r.epochs_run for r in one_lane)}); "
      f"{len(shrinks)} shrink events, batch widths {sorted(set(widths))}")
EOF

echo "== scenario smoke (stuck-at non-idealities through one-lane + 2-lane batches, telemetry-gated) =="
TEL_SCEN="$SMOKE_ROOT/telemetry_scenarios"
TEL_SCEN="$TEL_SCEN" python - <<'EOF'
import os
import numpy as np
from repro import telemetry
from repro.experiments import (
    ExperimentConfig,
    enumerate_jobs,
    execute_job_lanes,
    group_jobs_into_lanes,
    run_table2_parallel,
    split_by_scenario,
)
from repro.experiments.runner import default_surrogates

# Tiny grid, but a *defect-bearing* scenario: stuck-at overrides must run
# through one-lane and stacked batches, not just the multiplicative ε path.
cfg = ExperimentConfig(seeds=(1, 2), max_epochs=8, patience=8,
                       n_mc_train=3, n_test=6, max_train=60)
sur = default_surrogates()

jobs = enumerate_jobs(["iris"], cfg, scenarios=("stuck-1pct",))
batch = next(b for b in group_jobs_into_lanes(jobs)
             if b[0].learnable and b[0].variation_aware)
assert all(key.scenario == "stuck-1pct" for key in batch)

# One-lane batches, no telemetry — the reference.
one_lane = [execute_job_lanes([key], cfg, sur)[0] for key in batch]

tel = telemetry.enable(os.environ["TEL_SCEN"],
                       manifest={"command": "ci-scenario-smoke"})
laned = execute_job_lanes(batch, cfg, sur)
cells = run_table2_parallel(["iris"], cfg, surrogates=sur, workers=1,
                            scenarios=("default", "stuck-1pct"))
telemetry.disable()

# Gate 1: the stacked batch is bitwise equal to one-lane runs under defects.
for s, l in zip(one_lane, laned):
    assert l.key == s.key
    assert l.val_loss == s.val_loss, (s.key, s.val_loss, l.val_loss)
    assert l.best_epoch == s.best_epoch and l.epochs_run == s.epochs_run
    for sl, ll in zip(s.params.layers, l.params.layers):
        assert np.array_equal(sl.theta, ll.theta)
        assert np.array_equal(sl.act_omega, ll.act_omega)
        assert np.array_equal(sl.neg_omega, ll.neg_omega)

# Gate 2: the sweep produced both scenario buckets, and they differ.
buckets = split_by_scenario(cells)
assert list(buckets) == ["default", "stuck-1pct"], list(buckets)
assert len(buckets["default"]) == len(buckets["stuck-1pct"]) == 8
means = lambda rs: [c.mean for c in rs]
assert means(buckets["default"]) != means(buckets["stuck-1pct"]), \
    "stuck-at scenario produced identical cells to the default!"

# Gate 3 (telemetry): every planned batch stacked more than one lane and
# the defect counters prove overrides were actually injected.
events = telemetry.read_events(os.environ["TEL_SCEN"])
counters = telemetry.summarize_events(events)["counters"]
widths = [w for e in events if e["kind"] == "event" and e["name"] == "lanes.plan"
          for w in e["attrs"]["widths"]]
assert widths and min(widths) > 1, f"lane grouping degenerated: batch widths {widths}"
applied = int(counters.get("defects.applied", 0))
sampled = int(counters.get("defects.sampled", 0))
assert applied > 0 and sampled > 0, \
    f"no stuck devices recorded (applied={applied}, sampled={sampled})"
scen_jobs = {e["attrs"].get("scenario") for e in events
             if e["kind"] == "event" and e["name"] == "job.done"}
assert {"default", "stuck-1pct"} <= scen_jobs, scen_jobs
print(f"scenario smoke OK: {len(one_lane)} stuck-at lanes bitwise equal to "
      f"one-lane runs; {applied}/{sampled} devices stuck; scenarios {sorted(scen_jobs)}")
EOF

echo "== parallel smoke table2 (2 workers, fresh cache, telemetry on) =="
python -m repro.experiments.cli table2 --profile smoke --datasets iris \
    --workers 2 --cache-dir "$CACHE_DIR" --telemetry "$TEL_RUN"

echo "== resume (must be 100% cache hits; worker count differs, digest must not) =="
python -m repro.experiments.cli table2 --profile smoke --datasets iris \
    --workers 1 --cache-dir "$CACHE_DIR" --resume --telemetry "$TEL_RESUME"
TEL_RUN="$TEL_RUN" TEL_RESUME="$TEL_RESUME" \
    python - "$CACHE_DIR/journal.jsonl" <<'EOF'
import os, sys
from repro import telemetry
from repro.experiments import RunJournal

records = RunJournal.read(sys.argv[1])
second = records[len(records) // 2:]
assert second and all(r["cache_hit"] for r in second), "resume re-trained jobs!"

# Telemetry gate: the resume run's own event stream must show a 100%
# cache-hit ratio and zero trainings — independent of the journal.
resume = telemetry.summarize_events(telemetry.read_events(os.environ["TEL_RESUME"]))
hits = int(resume["counters"].get("cache.hit", 0))
misses = int(resume["counters"].get("cache.miss", 0))
trained = resume["events"].get("job.done", 0)
assert hits and misses == 0, f"resume hit ratio {hits}/{hits + misses} != 100%"
assert trained == 0, f"resume trained {trained} jobs!"

# The fresh run must have fanned its jobs over >= 2 worker processes and
# merged their logs back into one deterministic stream.
run_events = telemetry.read_events(os.environ["TEL_RUN"])
job_pids = {e["pid"] for e in run_events
            if e["kind"] == "event" and e["name"] == "job.done"}
assert len(job_pids) >= 2, f"expected >=2 workers, saw pids {job_pids}"
assert os.path.exists(os.path.join(os.environ["TEL_RUN"], "events.jsonl")), \
    "missing merged events.jsonl"
print(f"telemetry OK: resume {hits}/{hits + misses} cache hits, 0 trainings; "
      f"fresh run merged logs from {len(job_pids)} workers")
EOF

echo "== telemetry report smoke =="
python -m repro.experiments.cli report --telemetry "$TEL_RUN" --top 5

echo "== export-deploy smoke (8x8 tiling + closed-loop SPICE re-simulation, telemetry-gated) =="
TEL_EXPORT="$SMOKE_ROOT/telemetry_export"
EXPORT_DIR="$SMOKE_ROOT/export"
mkdir -p "$EXPORT_DIR"
TEL_EXPORT="$TEL_EXPORT" EXPORT_DIR="$EXPORT_DIR" python - <<'EOF'
import os
import numpy as np
from repro import telemetry
from repro.core import (
    PrintedNeuralNetwork,
    TrainConfig,
    save_params,
    snapshot_params,
    train_pnn,
)
from repro.experiments.runner import default_surrogates
from repro.exporting import TileSpec, compile_tiling, verify_deployment
from repro.exporting.deploy import OUTPUT_TOL

# Train one tiny pNN whose hidden crossbar (10 data rows x 4 cols) spills
# over an 8x8 tile, so the smoke exercises real multi-tile placement with
# inter-tile summing nodes — not just the single-tile special case.
rng = np.random.default_rng(0)
pnn = PrintedNeuralNetwork([6, 10, 4], default_surrogates(),
                           rng=np.random.default_rng(7))
x = rng.uniform(0.0, 1.0, size=(48, 6))
y = rng.integers(0, 4, size=48)
train_pnn(pnn, x[:36], y[:36], x[36:], y[36:],
          TrainConfig(max_epochs=4, patience=4, epsilon=0.1,
                      n_mc_train=3, seed=1))
params = snapshot_params(pnn)
save_params(params, os.path.join(os.environ["EXPORT_DIR"], "pnn.npz"))

tel = telemetry.enable(os.environ["TEL_EXPORT"],
                       manifest={"command": "ci-export-smoke"})
tiled = compile_tiling(params, TileSpec(max_rows=8, max_cols=8))
v = verify_deployment(params, x[:8], tiled=tiled,
                      scenarios=("nominal", "stuck-1pct"), n_mc=2, seed=0)
telemetry.get().merge()
telemetry.disable()

# Gate 1: the trained design survives the deploy gate — re-simulated
# through solve_dc_batch within the documented analog tolerance, in the
# nominal corner AND under stuck-at defects.
assert v.passed, v.summary()
assert v.max_output_divergence <= OUTPUT_TOL, v.summary()

# Gate 2 (telemetry): multi-tile placement actually happened, no device
# was silently dropped, and every verification lane converged.
events = telemetry.read_events(os.environ["TEL_EXPORT"])
counters = telemetry.summarize_events(events)["counters"]
assert int(counters["export.tiles"]) > 1, counters
assert int(counters.get("export.verify_failures", 0)) == 0, counters
assert int(counters.get("export.load_bearing_skips", 0)) == 0, counters
lanes = int(counters.get("export.verify_lanes", 0))
assert lanes == 8 + 2 * 8, f"expected 24 verification lanes, got {lanes}"
spans = {e["name"] for e in events if e["kind"] == "span"}
assert {"export.tile", "export.verify"} <= spans, spans
print(f"export smoke OK: {counters['export.tiles']} tiles / "
      f"{counters['export.devices']} devices verified over {lanes} lanes; "
      f"max divergence {v.max_output_divergence:.2e} V <= {OUTPUT_TOL:.0e}")
EOF

echo "== export CLI smoke (repro export --verify + report section) =="
TEL_EXPORT_CLI="$SMOKE_ROOT/telemetry_export_cli"
python -m repro.experiments.cli export --params "$EXPORT_DIR/pnn.npz" \
    --output "$EXPORT_DIR/pnn_tiled.netlist" --tile-rows 8 --tile-cols 8 \
    --verify --scenario nominal --scenario stuck-1pct \
    --telemetry "$TEL_EXPORT_CLI"
test -s "$EXPORT_DIR/pnn_tiled.netlist" \
    || { echo "export CLI wrote no netlist"; exit 1; }
grep -q "^\* tiling: 8x8" "$EXPORT_DIR/pnn_tiled.netlist" \
    || { echo "netlist missing tiling header"; exit 1; }
EXPORT_REPORT="$(python -m repro.experiments.cli report --telemetry "$TEL_EXPORT_CLI")"
echo "$EXPORT_REPORT" | grep -q "export:" \
    || { echo "report missing export section"; exit 1; }
echo "$EXPORT_REPORT" | grep -q "verification failures: 0" \
    || { echo "deploy gate failed: verification failures reported"; exit 1; }
echo "$EXPORT_REPORT" | grep "export:"

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
