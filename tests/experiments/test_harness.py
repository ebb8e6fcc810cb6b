"""Experiment harness: setups, runner protocol, tables, ablation math."""

import pytest

from repro.core import evaluate_mc
from repro.datasets import load_splits
from repro.experiments import (
    PROFILES,
    SETUPS,
    CellResult,
    ExperimentConfig,
    Setup,
    improvement_summary,
    profile_from_env,
    render_table2,
    render_table3,
    run_cell,
    summarize_table3,
)
from repro.experiments.jobs import SPLIT_SEED, cell_jobs, execute_job_lanes, iter_cells
from repro.experiments.runner import evaluate_cell, mc_evaluation_seed


def make_cell(dataset, learnable, va, eps, mean, std):
    return CellResult(
        dataset=dataset,
        setup=Setup(learnable=learnable, variation_aware=va),
        eps_test=eps,
        mean=mean,
        std=std,
        best_seed=1,
        best_val_loss=0.1,
    )


def synthetic_grid():
    """The paper's own Table III numbers as a result grid."""
    table3 = {
        (True, True, 0.05): (0.809, 0.023),
        (True, False, 0.05): (0.752, 0.095),
        (False, True, 0.05): (0.731, 0.053),
        (False, False, 0.05): (0.678, 0.085),
        (True, True, 0.10): (0.786, 0.029),
        (True, False, 0.10): (0.697, 0.130),
        (False, True, 0.10): (0.691, 0.080),
        (False, False, 0.10): (0.626, 0.118),
    }
    return [
        make_cell("iris", learnable, va, eps, mean, std)
        for (learnable, va, eps), (mean, std) in table3.items()
    ]


class TestConfig:
    def test_four_setups(self):
        assert len(SETUPS) == 4
        labels = {s.label for s in SETUPS}
        assert "learnable / variation-aware" in labels

    def test_paper_profile_matches_protocol(self):
        paper = PROFILES["paper"]
        assert paper.seeds == tuple(range(1, 11))
        assert paper.patience == 5000
        assert paper.n_mc_train == 20
        assert paper.n_test == 100
        assert paper.lr_theta == 0.1
        assert paper.lr_omega == 0.005

    def test_profile_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "fast")
        assert profile_from_env() is PROFILES["fast"]
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "nope")
        with pytest.raises(KeyError):
            profile_from_env()

    def test_with_overrides(self):
        config = PROFILES["smoke"].with_overrides(n_test=7)
        assert config.n_test == 7
        assert PROFILES["smoke"].n_test != 7

    def test_empty_seeds_rejected_when_built(self):
        with pytest.raises(ValueError, match="seeds is empty"):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError, match="seeds is empty"):
            PROFILES["smoke"].with_overrides(seeds=())

    def test_no_fabrications_rejected_when_built(self):
        """A grid with n_test < 1 fails before it trains, not in assembly."""
        for n_test in (0, -1):
            with pytest.raises(ValueError, match="n_test"):
                PROFILES["smoke"].with_overrides(n_test=n_test)


class TestRunner:
    @pytest.fixture(scope="class")
    def micro_config(self):
        return ExperimentConfig(
            seeds=(1,), max_epochs=25, patience=25, n_mc_train=3,
            n_test=6, max_train=60,
        )

    def test_run_cell_nominal(self, micro_config, analytic_surrogates):
        cell = run_cell(
            "iris", Setup(learnable=False, variation_aware=False), 0.05,
            micro_config, surrogates=analytic_surrogates,
        )
        assert 0.0 <= cell.mean <= 1.0
        assert cell.std >= 0.0
        assert cell.best_seed == 1

    def test_run_cell_over_iter_cells_produces_full_grid(
        self, micro_config, analytic_surrogates
    ):
        cells = [
            run_cell(dataset, setup, eps_test, micro_config, surrogates=analytic_surrogates)
            for dataset, setup, eps_test in iter_cells(["iris"])
        ]
        assert len(cells) == 8     # 4 setups × 2 epsilons
        keys = {(c.setup.learnable, c.setup.variation_aware, c.eps_test) for c in cells}
        assert len(keys) == 8

    def test_evaluate_cell_scores_in_the_winners_scenario(
        self, micro_config, analytic_surrogates
    ):
        setup = Setup(learnable=True, variation_aware=True)
        splits = load_splits("iris", seed=SPLIT_SEED, max_train=micro_config.max_train)
        (key,) = cell_jobs("iris", setup, 0.1, micro_config, scenario="stuck-1pct")
        (best,) = execute_job_lanes([key], micro_config, analytic_surrogates, splits)
        cell = evaluate_cell(best, splits, setup, 0.1, micro_config)
        accuracy = evaluate_mc(
            best.params, splits.x_test, splits.y_test, epsilon=0.1,
            n_test=micro_config.n_test, seed=mc_evaluation_seed(key.seed),
            scenario="stuck-1pct",
        )
        assert (cell.mean, cell.std) == (accuracy.mean, accuracy.std)
        assert (cell.dataset, cell.setup, cell.eps_test) == ("iris", setup, 0.1)
        assert (cell.best_seed, cell.best_val_loss, cell.scenario) == (
            key.seed, best.val_loss, "stuck-1pct")


class TestTables:
    def test_table2_contains_all_columns(self):
        text = render_table2(synthetic_grid())
        assert "Iris" in text
        assert "Average" in text
        assert text.count("±") >= 8

    def test_table3_summary_values(self):
        summary = summarize_table3(synthetic_grid())
        assert summary[(True, True, 0.05)][0] == pytest.approx(0.809)
        assert summary[(False, False, 0.10)][1] == pytest.approx(0.118)

    def test_table3_rendering(self):
        text = render_table3(synthetic_grid())
        assert "✓" in text and "✗" in text
        assert "0.809" in text

    def test_table2_handles_missing_cells(self):
        cells = [make_cell("iris", True, True, 0.05, 0.9, 0.01)]
        text = render_table2(cells)
        assert "—" in text


class TestAblation:
    def test_improvements_match_paper_arithmetic(self):
        """With the paper's own Table III numbers, the §IV-D claims follow."""
        summary = improvement_summary(synthetic_grid())
        # Paper: 19% and 26% accuracy improvement at 5% / 10% variation.
        assert summary[0.05].accuracy_gain == pytest.approx(0.193, abs=0.01)
        assert summary[0.10].accuracy_gain == pytest.approx(0.256, abs=0.01)
        # Paper: 73% and 75% robustness improvement.
        assert summary[0.05].robustness_gain == pytest.approx(0.73, abs=0.01)
        assert summary[0.10].robustness_gain == pytest.approx(0.756, abs=0.01)
        # Paper: contribution split 58/42 at 5%, 52/48 at 10%.
        assert summary[0.05].learnable_share == pytest.approx(0.58, abs=0.02)
        assert summary[0.10].learnable_share == pytest.approx(0.52, abs=0.02)

    def test_shares_sum_to_one(self):
        for improvement in improvement_summary(synthetic_grid()).values():
            assert improvement.learnable_share + improvement.variation_share == pytest.approx(1.0)

    def test_str_readable(self):
        text = str(list(improvement_summary(synthetic_grid()).values())[0])
        assert "accuracy" in text and "robustness" in text
