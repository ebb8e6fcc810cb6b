"""Sharded MC evaluation: bitwise identity with the serial path.

The tentpole contract of the sharding PR: for every shard count, chunk
size, scenario and pool start method, ``evaluate_mc_sharded``
returns byte-for-byte the accuracies of serial ``evaluate_mc`` — the
shards consume the *same* pre-drawn ε blocks the serial loop consumes,
so the merged stream is the serial stream.  Every equality below is
``assert_array_equal``; never ``allclose``.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import telemetry
from repro.core import (
    SAMPLE_BLOCK,
    PrintedNeuralNetwork,
    evaluate_mc,
    evaluate_mc_sharded,
    plan_shards,
    snapshot_params,
)
from repro.telemetry import read_events

SCENARIOS = ("default", "stuck-1pct", "correlated")


@pytest.fixture(scope="module")
def workload(analytic_surrogates):
    pnn = PrintedNeuralNetwork(
        [4, 3, 3], analytic_surrogates, rng=np.random.default_rng(7)
    )
    params = snapshot_params(pnn)
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 1.0, (23, 4))
    y = rng.integers(0, 3, 23)
    return params, x, y


class TestPlanShards:
    def test_boundaries_align_to_blocks(self):
        spans = plan_shards(70, 3)
        assert spans == [(0, 40), (40, 60), (60, 70)]
        for start, _ in spans[1:]:
            assert start % SAMPLE_BLOCK == 0

    def test_clamps_to_block_count(self):
        # 100 rows = 5 blocks: more shards than blocks collapse to 5.
        spans = plan_shards(100, 8)
        assert len(spans) == 5
        assert all(stop - start == SAMPLE_BLOCK for start, stop in spans)

    def test_single_block_single_shard(self):
        assert plan_shards(20, 4) == [(0, 20)]
        assert plan_shards(7, 3) == [(0, 7)]

    def test_spans_partition_the_range(self):
        for n_test in (20, 60, 70, 100, 230):
            for shards in (1, 2, 3, 7, 16):
                spans = plan_shards(n_test, shards)
                assert spans[0][0] == 0 and spans[-1][1] == n_test
                for (_, stop), (start, _) in zip(spans, spans[1:]):
                    assert stop == start
                assert all(stop > start for start, stop in spans)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            plan_shards(0, 2)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_inline_matches_serial(self, workload, scenario, shards):
        params, x, y = workload
        kwargs = dict(epsilon=0.1, n_test=70, seed=3, scenario=scenario)
        serial = evaluate_mc(params, x, y, **kwargs)
        sharded = evaluate_mc_sharded(params, x, y, shards=shards, **kwargs)
        assert_array_equal(sharded.accuracies, serial.accuracies)

    @pytest.mark.parametrize("batch_mc", [1, 7, 23, None])
    def test_invariant_to_shard_chunk_size(self, workload, batch_mc):
        params, x, y = workload
        kwargs = dict(epsilon=0.1, n_test=70, seed=3, scenario="stuck-1pct")
        serial = evaluate_mc(params, x, y, **kwargs)
        sharded = evaluate_mc_sharded(
            params, x, y, shards=3, batch_mc=batch_mc, **kwargs
        )
        assert_array_equal(sharded.accuracies, serial.accuracies)

    def test_non_dividing_n_test(self, workload):
        # 47 rows: a ragged final block, spans (0, 40), (40, 47).
        params, x, y = workload
        serial = evaluate_mc(params, x, y, epsilon=0.05, n_test=47, seed=9)
        sharded = evaluate_mc_sharded(
            params, x, y, epsilon=0.05, n_test=47, seed=9, shards=2
        )
        assert_array_equal(sharded.accuracies, serial.accuracies)

    def test_nominal_early_return(self, workload):
        params, x, y = workload
        serial = evaluate_mc(params, x, y, epsilon=0.0, n_test=50, seed=0)
        sharded = evaluate_mc_sharded(
            params, x, y, epsilon=0.0, n_test=50, seed=0, shards=4
        )
        assert sharded.accuracies.shape == (1,)
        assert_array_equal(sharded.accuracies, serial.accuracies)


class TestPooled:
    # stuck-1pct sends override-carrying Perturbation slices through the
    # pool's pickling; correlated sends bare ε arrays.
    @pytest.mark.parametrize("scenario", ["correlated", "stuck-1pct"])
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_matches_serial(self, workload, method, scenario):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        params, x, y = workload
        kwargs = dict(epsilon=0.1, n_test=70, seed=3, scenario=scenario)
        serial = evaluate_mc(params, x, y, **kwargs)
        ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            sharded = evaluate_mc_sharded(
                params, x, y, shards=3, pool=pool, **kwargs
            )
        assert_array_equal(sharded.accuracies, serial.accuracies)


class TestAccounting:
    def test_telemetry_spans_and_counters(self, workload, tmp_path):
        params, x, y = workload
        telemetry.enable(tmp_path / "tel", manifest={"profile": "test"})
        try:
            evaluate_mc_sharded(params, x, y, epsilon=0.1, n_test=60, seed=3,
                                shards=3)
            events = read_events(tmp_path / "tel")
        finally:
            telemetry.disable()
        spans = [e for e in events if e["kind"] == "span"]
        outer = [e for e in spans if e["name"] == "mc.evaluate_sharded"]
        shards = [e for e in spans if e["name"] == "mc.shard"]
        assert len(outer) == 1 and outer[0]["attrs"]["shards"] == 3
        assert outer[0]["attrs"]["pooled"] is False
        assert [(s["attrs"]["start"], s["attrs"]["stop"]) for s in shards] \
            == [(0, 20), (20, 40), (40, 60)]
