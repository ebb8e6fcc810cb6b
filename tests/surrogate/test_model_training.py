"""Surrogate MLP, its training loop and the dataset builder."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
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

    def test_differentiable_wrt_input(self):
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).uniform(size=(4, 10)))
        assert gradcheck(lambda x: model(x), [x])

    def test_parameter_gradients_match_finite_difference(self):
        model = SurrogateMLP(TINY_LAYER_WIDTHS, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).uniform(size=(4, 10)))

        def loss() -> float:
            return float(model(x).sum().data)

        model.zero_grad()
        model(x).sum().backward()
        weight = model.net[0].weight
        analytic = weight.grad[0, 0]
        h = 1e-6
        weight.data[0, 0] += h
        plus = loss()
        weight.data[0, 0] -= 2 * h
        minus = loss()
        weight.data[0, 0] += h
        assert analytic == pytest.approx((plus - minus) / (2 * h), rel=1e-4, abs=1e-8)

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

    def test_metrics_reported(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=60, patience=60, seed=1
        )
        assert np.isfinite(result.train_mse)
        assert np.isfinite(result.test_mse)
        assert result.r2_per_eta.shape == (4,)
        assert set(result.splits) == {"train", "val", "test"}

    def test_minibatch_training_runs(self, ptanh_dataset):
        result = train_surrogate(
            ptanh_dataset, widths=TINY_LAYER_WIDTHS, max_epochs=20,
            patience=20, batch_size=16, seed=0,
        )
        assert len(result.history) == 20
