"""Scenario sweeps end-to-end: training, lanes, cache digests, rendering.

The acceptance gates of the non-ideality pipeline at the harness level:

- the default scenario's cache digest is *pinned* to the historical
  5-element job payload (recorded caches keep hitting);
- non-default scenarios get distinct digests (and distinct results);
- stuck-at and correlated scenarios run train → MC eval → report grid
  through both the kernel and the lanes engine, with the lanes engine
  bitwise equal to serial kernel runs per lane.
"""

import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import telemetry
from repro.core import (
    PrintedNeuralNetwork,
    TrainConfig,
    evaluate_mc,
    snapshot_params,
    surrogate_fingerprint,
    train_pnn,
)
from repro.core.lanes import train_pnn_lanes
from repro.experiments import (
    ExperimentConfig,
    JobKey,
    ResultCache,
    RunJournal,
    enumerate_jobs,
    job_digest,
    render_scenario_grid,
    run_table2_parallel,
    split_by_scenario,
)
from repro.experiments.cache import CACHE_SCHEMA
from repro.telemetry import read_events, summarize_events

MICRO = ExperimentConfig(
    seeds=(1, 2), max_epochs=10, patience=10, n_mc_train=2, n_test=4, max_train=50,
)

SCENARIO_GRID = ("stuck-1pct", "correlated")


class TestDigests:
    def test_default_digest_pinned_to_legacy_payload(self, analytic_surrogates):
        """Default-scenario digests hash the historical 5-element job tuple."""
        key = JobKey("iris", True, True, 0.1, 3)
        fingerprint = surrogate_fingerprint(analytic_surrogates)
        legacy_payload = {
            "schema": CACHE_SCHEMA,
            "job": ("iris", True, True, 0.1, 3),
            "train": MICRO.training_fingerprint(),
            "surrogates": fingerprint,
            "split_seed": 0,
        }
        blob = json.dumps(legacy_payload, sort_keys=True, default=str).encode()
        assert job_digest(key, MICRO, fingerprint) == hashlib.sha256(blob).hexdigest()

    def test_each_scenario_gets_a_distinct_digest(self, analytic_surrogates):
        fingerprint = surrogate_fingerprint(analytic_surrogates)
        digests = {
            scenario: job_digest(
                JobKey("iris", True, True, 0.1, 3, scenario), MICRO, fingerprint
            )
            for scenario in ("default", "gaussian", "stuck-1pct", "correlated")
        }
        assert len(set(digests.values())) == len(digests)


class TestEnumeration:
    def test_scenarios_fan_out_scenario_major(self):
        jobs = enumerate_jobs(["iris"], MICRO, scenarios=("default", "stuck-1pct"))
        default = [j for j in jobs if j.scenario == "default"]
        stuck = [j for j in jobs if j.scenario == "stuck-1pct"]
        assert len(default) == len(stuck) == 6 * len(MICRO.seeds)
        assert jobs[: len(default)] == default       # scenario-major order
        assert len(set(jobs)) == len(jobs)


@pytest.mark.slow
class TestScenarioTraining:
    @pytest.mark.parametrize("scenario", SCENARIO_GRID)
    def test_kernel_and_lanes_engines_bitwise_equal(
        self, scenario, analytic_surrogates, blob_data
    ):
        x_train, y_train, x_val, y_val = blob_data

        def build(seed):
            return PrintedNeuralNetwork(
                [2, 3, 2], analytic_surrogates, rng=np.random.default_rng(seed)
            )

        def config(seed):
            return TrainConfig(max_epochs=8, patience=8, epsilon=0.1,
                               n_mc_train=3, seed=seed, scenario=scenario)

        serial = []
        for seed in (1, 2):
            pnn = build(seed)
            result = train_pnn(pnn, x_train, y_train, x_val, y_val, config(seed))
            serial.append((result, snapshot_params(pnn)))

        lane_pnns = [build(1), build(2)]
        lane_results = train_pnn_lanes(
            lane_pnns, x_train, y_train, x_val, y_val, [config(1), config(2)]
        )
        for (s_result, s_params), l_result, l_pnn in zip(
            serial, lane_results, lane_pnns
        ):
            assert l_result.best_val_loss == s_result.best_val_loss
            assert l_result.history == s_result.history
            for sl, ll in zip(s_params.layers, snapshot_params(l_pnn).layers):
                assert_array_equal(ll.theta, sl.theta)
                assert_array_equal(ll.act_omega, sl.act_omega)
                assert_array_equal(ll.neg_omega, sl.neg_omega)

    def test_stuck_scenario_changes_training(self, analytic_surrogates, blob_data, tmp_path):
        x_train, y_train, x_val, y_val = blob_data
        histories = {}
        for scenario in ("default", "stuck-1pct"):
            pnn = PrintedNeuralNetwork([2, 3, 2], analytic_surrogates,
                                       rng=np.random.default_rng(7))
            config = TrainConfig(max_epochs=5, patience=5, epsilon=0.1,
                                 n_mc_train=3, seed=3, scenario=scenario)
            telemetry.enable(tmp_path / scenario)
            try:
                result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
            finally:
                telemetry.disable()
            histories[scenario] = result.history
        assert histories["default"] != histories["stuck-1pct"]
        # The stuck-at training injected real defects; the default one none.
        counters = {scenario: summarize_events(read_events(tmp_path / scenario))["counters"]
                    for scenario in histories}
        assert "defects.sampled" not in counters["default"]
        stuck = counters["stuck-1pct"]
        assert 0 < stuck["defects.applied"] < stuck["defects.sampled"]

    def test_stuck_scenario_trains_defect_aware_at_eps_zero(
        self, analytic_surrogates, blob_data
    ):
        """Defects fire even at ε=0: the stuck scenario is never nominal."""
        x_train, y_train, x_val, y_val = blob_data
        histories = {}
        for scenario in ("default", "stuck-1pct"):
            pnn = PrintedNeuralNetwork([2, 3, 2], analytic_surrogates,
                                       rng=np.random.default_rng(7))
            config = TrainConfig(max_epochs=3, patience=3, epsilon=0.0,
                                 n_mc_train=3, seed=3, scenario=scenario)
            result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
            histories[scenario] = result.history
        assert histories["default"] != histories["stuck-1pct"]


class TestScenarioEvaluation:
    @pytest.fixture(scope="class")
    def design(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = PrintedNeuralNetwork([2, 3, 2], analytic_surrogates,
                                   rng=np.random.default_rng(7))
        config = TrainConfig(max_epochs=10, patience=10, epsilon=0.1,
                             n_mc_train=3, seed=3)
        train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        return snapshot_params(pnn), x_val, y_val

    @pytest.mark.parametrize("scenario", SCENARIO_GRID + ("gaussian",))
    def test_named_scenarios_evaluate_deterministically(self, design, scenario):
        params, x, y = design
        a = evaluate_mc(params, x, y, epsilon=0.1, n_test=12, seed=11,
                        scenario=scenario)
        b = evaluate_mc(params, x, y, epsilon=0.1, n_test=12, seed=11,
                        scenario=scenario)
        assert_array_equal(a.accuracies, b.accuracies)
        assert a.accuracies.shape == (12,)

    def test_scenarios_draw_distinct_noise(self, design):
        params, x, y = design
        streams = {
            scenario: evaluate_mc(params, x, y, epsilon=0.1, n_test=12, seed=11,
                                  scenario=scenario).accuracies.tobytes()
            for scenario in ("default", "gaussian", "stuck-1pct", "correlated")
        }
        assert len(set(streams.values())) > 1

    def test_unknown_scenario_rejected(self, design):
        params, x, y = design
        with pytest.raises(ValueError, match="known scenarios"):
            evaluate_mc(params, x, y, epsilon=0.1, n_test=4, scenario="nope")


@pytest.mark.slow
class TestScenarioSweepEndToEnd:
    @pytest.fixture(scope="class")
    def sweep(self, analytic_surrogates, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("scenario_cache"))
        results = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1,
            cache=cache, scenarios=("default", "stuck-1pct"),
        )
        return results, cache

    def test_results_cover_both_scenarios_in_order(self, sweep):
        results, _ = sweep
        buckets = split_by_scenario(results)
        assert list(buckets) == ["default", "stuck-1pct"]
        assert len(buckets["default"]) == len(buckets["stuck-1pct"]) == 8
        assert [c.mean for c in buckets["default"]] != [c.mean for c in buckets["stuck-1pct"]]

    def test_default_cells_match_single_scenario_run(self, sweep, analytic_surrogates):
        results, _ = sweep
        reference = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1,
        )
        default = split_by_scenario(results)["default"]
        assert [
            (c.dataset, c.eps_test, c.mean, c.std, c.best_seed, c.best_val_loss)
            for c in default
        ] == [
            (c.dataset, c.eps_test, c.mean, c.std, c.best_seed, c.best_val_loss)
            for c in reference
        ]

    def test_cache_holds_disjoint_entries_per_scenario(self, sweep):
        _, cache = sweep
        # 6 groups × 2 seeds × 2 scenarios, no digest collisions.
        assert len(cache) == 24

    def test_journal_records_scenarios(self, sweep):
        _, cache = sweep
        records = RunJournal.read(cache.journal_path)
        scenarios = {record["scenario"] for record in records}
        assert scenarios == {"default", "stuck-1pct"}

    def test_scenario_grid_renders_sections(self, sweep):
        results, _ = sweep
        grid = render_scenario_grid(results)
        assert "=== scenario: default ===" in grid
        assert "=== scenario: stuck-1pct ===" in grid

    def test_single_scenario_grid_has_no_sections(self, sweep, analytic_surrogates):
        results, _ = sweep
        default_only = split_by_scenario(results)["default"]
        assert "=== scenario" not in render_scenario_grid(default_only)
