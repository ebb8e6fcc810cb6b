"""Job decomposition: keys, enumeration, dedup, deterministic execution."""

import numpy as np

from repro.core.params import PNNParams
from repro.experiments import ExperimentConfig, enumerate_jobs, execute_job_lanes
from repro.experiments.config import SETUPS, TEST_EPSILONS, Setup
from repro.experiments.jobs import (
    SPLIT_SEED,
    JobKey,
    JobOutcome,
    best_of_seeds,
    cell_jobs,
    iter_cells,
    train_epsilon,
)
from repro.experiments.runner import mc_evaluation_seed


def execute_one(key, config, surrogates):
    """Train one job as a one-lane batch."""
    (outcome,) = execute_job_lanes([key], config, surrogates)
    return outcome


MICRO = ExperimentConfig(
    seeds=(1, 2), max_epochs=15, patience=15, n_mc_train=2, n_test=4, max_train=50,
)


class TestJobKey:
    def test_hashable_and_ordered(self):
        a = JobKey("iris", True, True, 0.05, 1)
        b = JobKey("iris", True, True, 0.05, 2)
        assert hash(a) != hash(b) or a != b
        assert a < b
        assert a.astuple() == ("iris", True, True, 0.05, 1, "default")

    def test_setup_and_group(self):
        key = JobKey("iris", True, False, 0.0, 3)
        assert key.setup == Setup(learnable=True, variation_aware=False)
        assert key.group == ("iris", True, False, 0.0, "default")

    def test_scenario_defaults_for_positional_construction(self):
        # Pre-scenario call sites (and cached 5-element key lists) still
        # construct keys positionally; the scenario fills in last.
        key = JobKey(*("iris", True, True, 0.05, 1))
        assert key.scenario == "default"
        assert key == JobKey("iris", True, True, 0.05, 1, "default")

    def test_train_epsilon_rule(self):
        va = Setup(learnable=False, variation_aware=True)
        nominal = Setup(learnable=False, variation_aware=False)
        assert train_epsilon(va, 0.1) == 0.1
        assert train_epsilon(nominal, 0.1) == 0.0


class TestEnumeration:
    def test_cell_order_matches_serial_runner(self):
        cells = list(iter_cells(["iris", "seeds"]))
        assert len(cells) == 2 * len(SETUPS) * len(TEST_EPSILONS)
        assert cells[0] == ("iris", SETUPS[0], TEST_EPSILONS[0])
        assert cells[-1] == ("seeds", SETUPS[-1], TEST_EPSILONS[-1])

    def test_nominal_dedup(self):
        # 4 setups × 2 test ϵ → 6 training groups (nominal ones collapse).
        jobs = enumerate_jobs(["iris"], MICRO)
        assert len(jobs) == 6 * len(MICRO.seeds)
        assert len(set(jobs)) == len(jobs)
        nominal = [j for j in jobs if not j.variation_aware]
        assert all(j.train_eps == 0.0 for j in nominal)

    def test_deterministic(self):
        assert enumerate_jobs(["iris"], MICRO) == enumerate_jobs(["iris"], MICRO)


class TestCellJobs:
    def test_one_key_per_seed_in_seed_order(self):
        config = MICRO.with_overrides(seeds=(3, 1, 2))
        setup = Setup(learnable=True, variation_aware=True)
        keys = cell_jobs("iris", setup, 0.1, config, scenario="correlated")
        assert keys == [JobKey("iris", True, True, 0.1, seed, "correlated")
                        for seed in (3, 1, 2)]

    def test_nominal_cells_share_their_keys(self):
        nominal = Setup(learnable=False, variation_aware=False)
        low, high = (cell_jobs("iris", nominal, eps, MICRO) for eps in TEST_EPSILONS)
        assert low == high
        assert all(key.train_eps == 0.0 for key in low)

    def test_variation_aware_cells_train_separately(self):
        # VA circuits are tested at their training ε: one group per test ε.
        aware = Setup(learnable=False, variation_aware=True)
        low, high = (cell_jobs("iris", aware, eps, MICRO) for eps in TEST_EPSILONS)
        assert {key.group for key in low}.isdisjoint({key.group for key in high})
        assert [key.train_eps for key in low] == [0.05] * len(MICRO.seeds)
        assert [key.train_eps for key in high] == [0.10] * len(MICRO.seeds)

    def test_enumerate_jobs_is_the_deduplicated_cell_jobs(self):
        expected = []
        for cell in iter_cells(["iris", "seeds"]):
            expected.extend(key for key in cell_jobs(*cell, MICRO) if key not in expected)
        assert enumerate_jobs(["iris", "seeds"], MICRO) == expected


class TestBestOfSeeds:
    @staticmethod
    def outcome(seed, val_loss):
        return JobOutcome(
            key=JobKey("iris", True, True, 0.1, seed), topology=(4, 3, 3),
            per_neuron_activation=False, val_loss=val_loss,
            best_epoch=0, epochs_run=1, wall_time=0.0,
        )

    def test_lowest_validation_loss_wins(self):
        outcomes = [self.outcome(1, 0.5), self.outcome(2, 0.25), self.outcome(3, 0.75)]
        assert best_of_seeds(iter(outcomes)) is outcomes[1]

    def test_ties_go_to_the_earlier_seed(self):
        outcomes = [self.outcome(3, 0.5), self.outcome(1, 0.25), self.outcome(2, 0.25)]
        assert best_of_seeds(outcomes) is outcomes[1]


class TestExecution:
    def test_execute_matches_rerun_bitwise(self, analytic_surrogates):
        key = JobKey("iris", False, False, 0.0, 1)
        first = execute_one(key, MICRO, analytic_surrogates)
        second = execute_one(key, MICRO, analytic_surrogates)
        assert first.val_loss == second.val_loss
        assert first.epochs_run == second.epochs_run
        for a, b in zip(first.params.layers, second.params.layers):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.act_omega, b.act_omega)
            np.testing.assert_array_equal(a.neg_omega, b.neg_omega)

    def test_outcome_params_snapshot(self, analytic_surrogates):
        from repro.datasets import load_splits

        key = JobKey("iris", True, True, 0.05, 1)
        outcome = execute_one(key, MICRO, analytic_surrogates)
        assert isinstance(outcome.params, PNNParams)
        assert outcome.params.layer_sizes == outcome.topology
        splits = load_splits("iris", seed=SPLIT_SEED, max_train=MICRO.max_train)
        np.testing.assert_array_equal(
            outcome.params.predict(splits.x_test),
            execute_one(key, MICRO, analytic_surrogates).params.predict(splits.x_test),
        )


class TestEvaluationSeed:
    def test_identity_and_deterministic(self):
        # The MC-evaluation seed is derived from the winning training seed;
        # today's derivation is the (explicit) identity.
        assert mc_evaluation_seed(7) == 7
        assert mc_evaluation_seed(np.int64(7)) == 7
        assert isinstance(mc_evaluation_seed(np.int64(7)), int)
