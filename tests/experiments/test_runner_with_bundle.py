"""Runner protocol details against the trained tiny NN bundle."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, run_cell
from repro.experiments.config import Setup


@pytest.fixture(scope="module")
def micro_config():
    return ExperimentConfig(
        seeds=(1, 2), max_epochs=30, patience=30, n_mc_train=3, n_test=6, max_train=60
    )


class TestSeedSelection:
    def test_best_seed_reported_from_candidates(self, micro_config, tiny_bundle):
        cell = run_cell(
            "iris", Setup(learnable=True, variation_aware=False), 0.05,
            micro_config, surrogates=tiny_bundle,
        )
        assert cell.best_seed in micro_config.seeds
        assert np.isfinite(cell.best_val_loss)

    def test_nominal_cell_evaluated_at_test_epsilon(self, micro_config, tiny_bundle):
        setup = Setup(learnable=False, variation_aware=False)
        cell = run_cell("iris", setup, 0.10, micro_config, surrogates=tiny_bundle)
        # Under 10% variation an MC evaluation must produce spread unless
        # the classifier is degenerate; both are valid, so only bounds are
        # asserted here.
        assert 0.0 <= cell.mean <= 1.0
        assert 0.0 <= cell.std <= 0.5
