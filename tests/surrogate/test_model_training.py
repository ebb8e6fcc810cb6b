"""Surrogate MLP, its training loop and the dataset builder."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.surrogate import (
    PAPER_LAYER_WIDTHS,
    SurrogateMLP,
    train_surrogate,
)
from repro.surrogate.dataset_builder import SurrogateDataset, simulate_curve_batch
from repro.surrogate.model import TINY_LAYER_WIDTHS
from repro.surrogate.training import r_squared, split_indices


class TestSurrogateMLP:
    def test_paper_architecture(self):
        assert PAPER_LAYER_WIDTHS == (10, 9, 9, 8, 8, 7, 7, 6, 6, 6, 5, 5, 5, 4)
        model = SurrogateMLP(rng=np.random.default_rng(0))
        # 13 Linear layers → 13 weight + 13 bias parameters.
        assert sum(1 for _ in model.parameters()) == 26

    def test_forward_shapes(self):
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(0))
        assert model(Tensor(np.zeros((7, 10)))).shape == (7, 4)
        assert model(Tensor(np.zeros((3, 2, 10)))).shape == (3, 2, 4)

    def test_input_gradient_under_mse_matches_finite_difference(self, numeric_grad):
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).uniform(size=(4, 10))
        target = np.random.default_rng(3).normal(size=(4, 4))
        x_t = Tensor(x, requires_grad=True)
        F.mse_loss(model(x_t), target).backward()
        numeric = numeric_grad(lambda v: F.mse_loss(model(Tensor(v)), target).item(), x)
        np.testing.assert_allclose(x_t.grad, numeric, rtol=1e-5, atol=1e-9)

    def test_parameter_gradients_under_mse_match_finite_difference(self, numeric_grad):
        """Every weight and bias, under the loss ``train_surrogate`` differentiates."""
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).uniform(size=(4, 10)))
        target = np.random.default_rng(3).normal(size=(4, 4))
        F.mse_loss(model(x), target).backward()
        for name, param in model.named_parameters():
            saved = param.data

            def loss(v, param=param):
                param.data = v
                return F.mse_loss(model(x), target).item()

            numeric = numeric_grad(loss, saved)
            param.data = saved
            np.testing.assert_allclose(param.grad, numeric, rtol=1e-5, atol=1e-9, err_msg=name)

    @pytest.mark.parametrize("widths", [(10, 4), TINY_LAYER_WIDTHS, PAPER_LAYER_WIDTHS])
    def test_tanh_between_linear_layers(self, widths):
        model = SurrogateMLP(widths, rng=np.random.default_rng(0))
        kinds = [type(m).__name__ for m in model.net]
        assert kinds == ["Linear", "Tanh"] * (len(widths) - 2) + ["Linear"]
        shapes = [m.weight.shape for m in model.net if type(m).__name__ == "Linear"]
        assert shapes == list(zip(widths[:-1], widths[1:]))

    def test_predict_matches_the_taped_forward(self):
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(size=(5, 10))
        np.testing.assert_array_equal(model.predict(x), model(Tensor(x)).data)

    def test_predict_without_tape(self):
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(0))
        out = model.predict(np.zeros((2, 10)))
        assert isinstance(out, np.ndarray) and out.shape == (2, 4)

    def test_rejects_wrong_io_widths(self):
        with pytest.raises(ValueError):
            SurrogateMLP((8, 4))
        with pytest.raises(ValueError):
            SurrogateMLP((10, 5))


class TestSplitsAndMetrics:
    def test_split_fractions(self):
        rng = np.random.default_rng(0)
        train, val, test = split_indices(100, rng)
        assert len(train) == 70 and len(val) == 20 and len(test) == 10

    @pytest.mark.parametrize("n", [10, 57, 100, 1001])
    def test_split_partitions_every_size(self, n):
        train, val, test = split_indices(n, np.random.default_rng(n))
        assert len(train) == round(0.7 * n) and len(val) == round(0.2 * n)
        assert np.array_equal(np.sort(np.concatenate([train, val, test])), np.arange(n))

    def test_split_partitions_disjoint_and_complete(self):
        rng = np.random.default_rng(1)
        train, val, test = split_indices(57, rng)
        union = np.concatenate([train, val, test])
        assert len(np.unique(union)) == 57

    def test_split_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            split_indices(10, np.random.default_rng(0), fractions=(0.5, 0.5, 0.5))

    def test_r_squared_perfect_and_mean(self):
        target = np.random.default_rng(0).normal(size=(50, 2))
        assert np.allclose(r_squared(target, target), 1.0)
        mean_prediction = np.tile(target.mean(axis=0), (50, 1))
        assert np.allclose(r_squared(mean_prediction, target), 0.0, atol=1e-9)


class TestDatasetBuilder:
    def test_dataset_contents(self, ptanh_dataset):
        assert len(ptanh_dataset) > 40
        assert ptanh_dataset.omega.shape[1] == 7
        assert ptanh_dataset.eta.shape[1] == 4
        assert ptanh_dataset.kind == "ptanh"
        assert np.all(ptanh_dataset.rmse <= 0.05)

    def test_negweight_dataset(self, negweight_dataset):
        assert negweight_dataset.kind == "negweight"
        assert len(negweight_dataset) > 40

    def test_eta_within_identifiable_bounds(self, ptanh_dataset):
        from repro.surrogate.fitting import ETA_BOUNDS_HIGH, ETA_BOUNDS_LOW

        assert np.all(ptanh_dataset.eta >= ETA_BOUNDS_LOW)
        assert np.all(ptanh_dataset.eta <= ETA_BOUNDS_HIGH)

    def test_simulate_curve_dispatch(self):
        omegas = np.array([[200, 80, 100e3, 40e3, 100e3, 500, 30.0]])
        x1, y1, ok1 = simulate_curve_batch(omegas, "ptanh", 9, None)
        x2, y2, ok2 = simulate_curve_batch(omegas, "negweight", 9, None)
        assert y1.shape == (1, 9) and y2.shape == (1, 9)
        assert ok1.all() and ok2.all()
        assert y1[0, -1] > y1[0, 0] and (y2 <= 0).all()   # rising ptanh, negative inv
        with pytest.raises(ValueError):
            simulate_curve_batch(omegas, "mystery", 9, None)

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ValueError):
            SurrogateDataset(
                omega=np.zeros((3, 7)), eta=np.zeros((2, 4)), rmse=np.zeros(3), kind="ptanh"
            )


class TestTraining:
    def test_training_reduces_validation_loss(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=150, patience=150, seed=0
        )
        first_val = result.history[0][2]
        assert result.val_mse < first_val

    def test_early_stopping_restores_best(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=120, patience=20, seed=0
        )
        best_recorded = min(h[2] for h in result.history)
        assert result.val_mse <= best_recorded + 1e-6

    def test_deterministic_given_the_seed(self, ptanh_dataset):
        runs = [
            train_surrogate(ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=40,
                            patience=40, seed=2)
            for _ in range(2)
        ]
        assert runs[0].history == runs[1].history
        for name, value in runs[0].model.state_dict().items():
            np.testing.assert_array_equal(value, runs[1].model.state_dict()[name])

    def test_runs_every_epoch_while_patience_lasts(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=30, patience=30, seed=0
        )
        assert [h[0] for h in result.history] == list(range(30))

    def test_stops_patience_epochs_after_the_best(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=400, patience=3, lr=0.05, seed=0
        )
        val = [h[2] for h in result.history]
        best_epoch = int(np.argmin(val))
        assert len(val) < 400
        assert len(val) == best_epoch + 3 + 1

    def test_best_state_captured_only_on_improving_epochs(self, ptanh_dataset, monkeypatch):
        calls = []
        original = SurrogateMLP.state_dict

        def counting_state_dict(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(SurrogateMLP, "state_dict", counting_state_dict)
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=80, patience=10, lr=0.05, seed=0
        )
        running_best, improvements = np.inf, 0
        for _, _, val in result.history:
            if val < running_best:
                running_best, improvements = val, improvements + 1
        assert improvements < len(result.history)
        assert len(calls) == improvements

    def test_restored_weights_reproduce_the_best_validation_loss(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=400, patience=3, lr=0.05, seed=0
        )
        assert result.val_mse == pytest.approx(min(h[2] for h in result.history), rel=1e-12)
        assert result.val_mse < result.history[-1][2]

    def test_metrics_reported(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=60, patience=60, seed=1
        )
        assert np.isfinite(result.train_mse)
        assert np.isfinite(result.test_mse)
        assert result.r2_per_eta.shape == (4,)
        assert set(result.splits) == {"train", "val", "test"}
