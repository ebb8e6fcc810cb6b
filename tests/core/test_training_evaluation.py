"""pNN training (nominal + variation-aware) and Monte-Carlo evaluation."""

import numpy as np
import pytest

from repro.core import (
    MonteCarloAccuracy,
    PrintedNeuralNetwork,
    TrainConfig,
    evaluate_mc,
    train_pnn,
)
from repro.core.grad_kernels import margin_loss_fwd
from repro.surrogate import AnalyticSurrogate


def make_pnn(sizes, seed=0):
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork(sizes, surrogates, rng=np.random.default_rng(seed))


def nonlinear_arrays(pnn):
    """Copies of every circuit's raw 𝔴 (activation, then negation, per layer)."""
    return [w.copy() for layer in pnn.layers for w in (layer.w_act, layer.w_neg)]


class TestTrainConfig:
    def test_variation_aware_flag(self):
        assert not TrainConfig(epsilon=0.0).variation_aware
        assert TrainConfig(epsilon=0.05).variation_aware


class TestNominalTraining:
    @pytest.mark.slow
    def test_learns_separable_blobs(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=1)
        config = TrainConfig(max_epochs=400, patience=400, epsilon=0.0, seed=1)
        result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        accuracy = evaluate_mc(pnn, x_val, y_val, epsilon=0.0)
        assert accuracy.mean > 0.9
        assert result.best_val_loss < result.history[0][2]

    def test_restores_best_epoch_parameters(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=2)
        config = TrainConfig(max_epochs=150, patience=30, epsilon=0.0, seed=2)
        result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        final_val, _ = margin_loss_fwd(pnn.snapshot().forward(x_val), y_val)
        assert final_val == pytest.approx(result.best_val_loss, abs=1e-9)

    def test_early_stopping_truncates(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=3)
        config = TrainConfig(max_epochs=4000, patience=10, epsilon=0.0, seed=3)
        result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        assert result.epochs_run < 4000

    def test_non_learnable_keeps_w_fixed(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=4)
        w_before = nonlinear_arrays(pnn)
        config = TrainConfig(
            max_epochs=60, patience=60, epsilon=0.0, learnable_nonlinear=False, seed=4
        )
        train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        for before, after in zip(w_before, nonlinear_arrays(pnn)):
            assert np.array_equal(before, after)

    def test_learnable_changes_w(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=5)
        w_before = nonlinear_arrays(pnn)
        config = TrainConfig(max_epochs=60, patience=60, epsilon=0.0, seed=5)
        train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        changed = any(
            not np.array_equal(before, after)
            for before, after in zip(w_before, nonlinear_arrays(pnn))
        )
        assert changed


class TestVariationAwareTraining:
    @pytest.mark.slow
    def test_runs_and_learns(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=6)
        config = TrainConfig(
            max_epochs=200, patience=200, epsilon=0.10, n_mc_train=5, seed=6
        )
        result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        accuracy = evaluate_mc(pnn, x_val, y_val, epsilon=0.10, n_test=20, seed=0)
        assert accuracy.mean > 0.8
        assert result.best_val_loss < result.history[0][2]

    def test_uses_margin_or_ce(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        for loss in ("margin", "ce"):
            pnn = make_pnn((2, 3, 2), seed=7)
            config = TrainConfig(max_epochs=30, patience=30, loss=loss, seed=7)
            result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
            assert len(result.history) == 30


class TestEvaluation:
    def test_nominal_single_sample(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=8)
        accuracy = evaluate_mc(pnn, x_val, y_val, epsilon=0.0, n_test=100)
        assert len(accuracy.accuracies) == 1
        assert accuracy.std == 0.0

    def test_mc_sample_count(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=9)
        accuracy = evaluate_mc(pnn, x_val, y_val, epsilon=0.1, n_test=23, batch_mc=7)
        assert len(accuracy.accuracies) == 23

    def test_deterministic_given_seed(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=10)
        a = evaluate_mc(pnn, x_val, y_val, epsilon=0.1, n_test=10, seed=42)
        b = evaluate_mc(pnn, x_val, y_val, epsilon=0.1, n_test=10, seed=42)
        assert np.array_equal(a.accuracies, b.accuracies)

    def test_accuracies_in_unit_interval(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=11)
        accuracy = evaluate_mc(pnn, x_val, y_val, epsilon=0.15, n_test=15)
        assert np.all((accuracy.accuracies >= 0) & (accuracy.accuracies <= 1))

    def test_no_fabrications_rejected(self, blob_data):
        _, _, x_val, y_val = blob_data
        pnn = make_pnn((2, 3, 2), seed=12)
        for epsilon in (0.0, 0.1):
            with pytest.raises(ValueError, match="n_test"):
                evaluate_mc(pnn, x_val, y_val, epsilon=epsilon, n_test=0)

    def test_str_format(self):
        accuracy = MonteCarloAccuracy(np.array([0.5, 0.7]))
        assert "0.600" in str(accuracy)
