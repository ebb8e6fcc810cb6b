"""Aging extension: drift model, composite disturbances, lifetime sweep."""

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn
from repro.core.aging import AgingModel, evaluate_lifetime
from repro.core.variation import ComposedModel, VariationModel
from repro.surrogate import AnalyticSurrogate


def make_pnn(seed=0):
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork([2, 3, 2], surrogates, rng=np.random.default_rng(seed))


class TestAgingModel:
    def test_fresh_device_unaged(self):
        model = AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=0)
        assert model.is_nominal
        assert np.allclose(model.decay_factor(np.array(0.0)), 1.0)

    def test_decay_monotone_in_time(self):
        model = AgingModel(drift_rate=0.1, seed=0)
        times = np.linspace(0, 5, 11)
        factors = model.decay_factor(times)
        assert np.all(np.diff(factors) <= 0)
        assert np.all(factors > 0)

    def test_decay_floor(self):
        model = AgingModel(drift_rate=5.0, seed=0)
        assert model.decay_factor(np.array(1e6)) >= 0.05

    def test_sample_shape_and_bounds(self):
        model = AgingModel(drift_rate=0.05, time_horizon=1.0, spread=0.02, seed=1)
        sample = model.sample(8, (4, 3))
        assert sample.shape == (8, 4, 3)
        # Worst case: max drift at T times max negative jitter.
        worst = model.decay_factor(np.array(1.0)) * (1 - 0.02)
        assert np.all(sample >= worst - 1e-12)
        assert np.all(sample <= 1.02 + 1e-12)

    def test_drift_only_sample_has_full_shape(self):
        """``spread=0`` still draws ``(n_mc, *shape)``, and no extra RNG call."""
        model = AgingModel(drift_rate=0.2, spread=0.0, seed=3)
        sample = model.sample(3, (4, 2))
        assert sample.shape == (3, 4, 2)
        reference = np.random.default_rng(3)
        times = reference.uniform(0.0, model.time_horizon, size=3)
        assert np.array_equal(
            sample, np.broadcast_to(model.decay_factor(times)[:, None, None], (3, 4, 2))
        )
        assert model.rng.bit_generator.state == reference.bit_generator.state

    def test_drift_only_model_drives_a_forward(self):
        from repro.core import kernels

        params = make_pnn().snapshot()
        x = np.random.default_rng(0).uniform(size=(5, 2))
        out = kernels.network_forward(
            params, x, variation=AgingModel(drift_rate=0.2, spread=0.0, seed=0), n_mc=3
        )
        assert out.shape == (3, 5, 2)

    def test_fixed_time_removes_age_randomness(self):
        model = AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.5, seed=0)
        sample = model.sample(5, (3,))
        assert np.allclose(sample, sample[0])

    def test_at_time_pins_age(self):
        model = AgingModel(drift_rate=0.1, time_horizon=2.0, seed=0)
        pinned = model.at_time(1.5)
        assert pinned.fixed_time == 1.5
        assert pinned.drift_rate == model.drift_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            AgingModel(drift_rate=-0.1)
        with pytest.raises(ValueError):
            AgingModel(tau=0.0)
        with pytest.raises(ValueError):
            AgingModel(spread=1.0)
        with pytest.raises(ValueError):
            AgingModel(seed=0).sample(0, (2,))


class TestCompositeVariation:
    def test_combines_models(self):
        aging = AgingModel(drift_rate=0.2, spread=0.0, fixed_time=1.0, seed=0)
        variation = VariationModel(0.0, seed=0)
        composite = ComposedModel(aging, variation)
        sample = composite.sample_perturbation(4, (2,))
        expected = aging.decay_factor(np.array(1.0))
        assert np.allclose(sample.scale, expected)

    def test_nominal_only_if_all_nominal(self):
        nominal = VariationModel(0.0, seed=0)
        noisy = VariationModel(0.1, seed=0)
        assert ComposedModel(nominal, nominal).is_nominal
        assert not ComposedModel(nominal, noisy).is_nominal

    def test_requires_models(self):
        with pytest.raises(ValueError):
            ComposedModel()


@pytest.mark.slow
class TestLifetime:
    def test_accuracy_degrades_with_age(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(seed=1)
        config = TrainConfig(max_epochs=200, patience=200, seed=1)
        train_pnn(pnn, x_train, y_train, x_val, y_val, config)

        aging = AgingModel(drift_rate=0.25, spread=0.03, seed=2)
        points = evaluate_lifetime(
            pnn, x_val, y_val, aging, times=(0.0, 2.0, 20.0), n_test=15, seed=2
        )
        assert len(points) == 3
        assert points[0].mean >= points[-1].mean - 0.05   # fresh ≥ heavily aged

    def test_aging_aware_training_via_override(self, blob_data):
        """Aging models slot into train_pnn through the variation override."""
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(seed=3)
        aging = AgingModel(drift_rate=0.15, spread=0.02, time_horizon=2.0, seed=3)
        config = TrainConfig(max_epochs=80, patience=80, n_mc_train=4, seed=3)
        result = train_pnn(
            pnn, x_train, y_train, x_val, y_val, config,
            variation=aging,
            val_variation=AgingModel(drift_rate=0.15, spread=0.02,
                                     time_horizon=2.0, seed=99),
        )
        assert len(result.history) > 0
