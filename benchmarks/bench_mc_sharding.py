"""Sharded MC evaluation.

Benchmarks the sharded path on a large-``n_test`` scenario grid
(``n_test`` = 2000, ``stuck-1pct`` + ``correlated`` — the regime the
Table-II protocol scales into, where evaluation dominates the wall
clock).  Two gates, correctness always before timing:

1. **bitwise identity** — ``evaluate_mc_sharded`` equals serial
   ``evaluate_mc`` via ``assert_array_equal`` at every tested shard
   count and scenario (the path's hard contract);
2. **pooled ≥ 2×** — asserted only on hosts with ≥ 4 cores, where the
   shards actually spread; on smaller hosts the number is recorded but
   not gated (a 1-core container cannot speed up by adding processes).

The inline end-to-end ratio — the sharded path (adaptive cache-budget
chunks) vs. the serial default (``SAMPLE_BLOCK`` chunks) on one core —
is recorded but not gated: both run the same kernels, so it reflects
only the chunk size.

All measurements land in ``BENCH_mc_sharding.json`` with the host's CPU
count, so committed numbers are interpretable on their own.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from benchmarks._record import best_time, record_benchmark
from benchmarks.conftest import save_and_print
from repro.core import (
    SAMPLE_BLOCK,
    PrintedNeuralNetwork,
    evaluate_mc,
    evaluate_mc_sharded,
    snapshot_params,
)
from repro.surrogate import AnalyticSurrogate

SIZES = (16, 6, 4)
BATCH = 8192
N_TEST = 2000
EPSILON = 0.1
SHARDS = 8
REPEATS = 2
SCENARIOS = ("stuck-1pct", "correlated")
TIMED_SCENARIO = "stuck-1pct"

POOLED_GATE = 2.0
POOLED_MIN_CPUS = 4


def _workload():
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    pnn = PrintedNeuralNetwork(list(SIZES), surrogates, rng=np.random.default_rng(0))
    params = snapshot_params(pnn)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, (BATCH, SIZES[0]))
    y = rng.integers(0, SIZES[-1], BATCH)
    return params, x, y


def test_mc_sharding(output_dir):
    params, x, y = _workload()
    kwargs = dict(epsilon=EPSILON, n_test=N_TEST, seed=7)

    # ---- gate 1: bitwise identity before any timing ---- #
    for scenario in SCENARIOS:
        serial = evaluate_mc(params, x, y, scenario=scenario, **kwargs)
        for shards in (1, SHARDS):
            sharded = evaluate_mc_sharded(
                params, x, y, scenario=scenario, shards=shards, **kwargs,
            )
            np.testing.assert_array_equal(sharded.accuracies, serial.accuracies)

    # ---- recorded, not gated: inline sharded path vs. serial default ---- #
    t_serial = best_time(
        lambda: evaluate_mc(params, x, y, scenario=TIMED_SCENARIO, **kwargs),
        repeats=REPEATS,
    )
    t_sharded = best_time(
        lambda: evaluate_mc_sharded(
            params, x, y, scenario=TIMED_SCENARIO, shards=SHARDS, **kwargs,
        ),
        repeats=REPEATS,
    )
    end_to_end_speedup = t_serial / t_sharded

    # ---- gate 2: pooled fan-out, asserted on multi-core hosts only ---- #
    cpus = os.cpu_count() or 1
    pooled_speedup = None
    if cpus >= POOLED_MIN_CPUS:
        with ProcessPoolExecutor(max_workers=SHARDS) as pool:
            t_pooled = best_time(
                lambda: evaluate_mc_sharded(
                    params, x, y, scenario=TIMED_SCENARIO, shards=SHARDS,
                    pool=pool, **kwargs,
                ),
                repeats=REPEATS,
            )
        pooled_speedup = t_serial / t_pooled

    lines = [
        f"MC sharding: topology {list(SIZES)}, batch {BATCH}, "
        f"n_test {N_TEST}, eps {EPSILON}, scenario {TIMED_SCENARIO}, "
        f"{SHARDS} shards, {cpus} cpu(s)",
        f"  identity: sharded == serial bitwise at shards in (1, {SHARDS}) "
        f"for {', '.join(SCENARIOS)}",
        f"  end-to-end (inline, one core; recorded, not gated):",
        f"    serial, batch_mc={SAMPLE_BLOCK:<4}     : {t_serial:8.3f} s",
        f"    sharded, adaptive chunks  : {t_sharded:8.3f} s",
        f"    speedup                   : {end_to_end_speedup:8.2f}x",
    ]
    if pooled_speedup is not None:
        lines.append(
            f"  pooled ({SHARDS} workers)     : {pooled_speedup:8.2f}x "
            f"(gate >= {POOLED_GATE}x)"
        )
    else:
        lines.append(
            f"  pooled gate skipped: {cpus} cpu(s) < {POOLED_MIN_CPUS} "
            f"(process fan-out cannot pay for itself on this host)"
        )
    save_and_print(output_dir, "mc_sharding", "\n".join(lines))

    record_benchmark(output_dir, "mc_sharding", {
        "topology": list(SIZES), "batch": BATCH, "n_test": N_TEST,
        "epsilon": EPSILON, "shards": SHARDS, "scenarios": list(SCENARIOS),
        "timed_scenario": TIMED_SCENARIO,
        "end_to_end": {"serial_seconds": t_serial,
                       "sharded_seconds": t_sharded,
                       "speedup": end_to_end_speedup},
        "pooled": {"speedup": pooled_speedup, "gate": POOLED_GATE,
                   "gated": cpus >= POOLED_MIN_CPUS},
    })

    if pooled_speedup is not None:
        assert pooled_speedup >= POOLED_GATE, (
            f"pooled sharding only {pooled_speedup:.2f}x on {cpus} cpus "
            f"(need >= {POOLED_GATE}x)"
        )
