"""Printable-conductance constraint and the variation model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConductanceConfig, KernelNetwork, PrintedNeuralNetwork, VariationModel
from repro.core.grad_kernels import project_printable
from repro.core.variation import PAPER_EPSILONS
from repro.surrogate import AnalyticSurrogate


class TestConductanceConfig:
    def test_defaults_valid(self):
        config = ConductanceConfig()
        assert 0 < config.g_min < config.g_max

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            ConductanceConfig(g_min=1.0, g_max=0.5)
        with pytest.raises(ValueError):
            ConductanceConfig(g_min=0.0, g_max=1.0)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_projection_lands_in_printable_set(self, seed):
        config = ConductanceConfig()
        rng = np.random.default_rng(seed)
        theta = rng.normal(scale=15.0, size=64)
        projected = np.abs(project_printable(theta, config.g_min, config.g_max))
        nonzero = projected[projected > 0]
        assert np.all(nonzero >= config.g_min)
        assert np.all(nonzero <= config.g_max)

    def test_projection_identity_inside_band(self):
        config = ConductanceConfig()
        theta = np.array([0.5, -2.0, 0.01, -10.0])
        assert np.allclose(project_printable(theta, config.g_min, config.g_max), theta)

    def test_projection_straight_through_gradient(self):
        """A raw θ outside the band gets the gradient of its projected value."""
        config = ConductanceConfig()
        pnn = PrintedNeuralNetwork(
            [2, 2], (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight")),
            rng=np.random.default_rng(0),
        )
        net = KernelNetwork.from_pnn(pnn)
        x = np.random.default_rng(1).uniform(size=(5, 2))
        y = np.array([0, 1, 1, 0, 1])
        raw = KernelNetwork.extract_arrays(pnn)
        raw[0][0][0, 0] = 100.0
        raw[0][0][1, 1] = -0.0001
        projected = [[project_printable(raw[0][0], config.g_min, config.g_max), *raw[0][1:]]]
        assert projected[0][0][0, 0] == config.g_max and projected[0][0][1, 1] == 0.0
        _, raw_grads = net.loss_and_grads(raw, x, y)
        _, projected_grads = net.loss_and_grads(projected, x, y)
        np.testing.assert_array_equal(raw_grads[0].theta, projected_grads[0].theta)
        assert raw_grads[0].theta[0, 0] != 0.0

    def test_init_theta_within_band(self):
        config = ConductanceConfig()
        theta = config.init_theta((100, 5), np.random.default_rng(0))
        assert theta.shape == (100, 5)
        magnitudes = np.abs(theta)
        assert np.all(magnitudes >= config.g_min)
        assert np.all(magnitudes <= 1.0)

    def test_init_theta_mixed_signs(self):
        theta = ConductanceConfig().init_theta((200,), np.random.default_rng(1))
        assert (theta > 0).any() and (theta < 0).any()


class TestVariationModel:
    def test_paper_epsilons(self):
        assert PAPER_EPSILONS == (0.0, 0.05, 0.10)

    def test_nominal_returns_exact_ones(self):
        model = VariationModel(0.0, seed=0)
        sample = model.sample(3, (4, 2))
        assert sample.shape == (3, 4, 2)
        assert np.all(sample == 1.0)

    @given(epsilon=st.sampled_from([0.05, 0.10, 0.3]), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_samples_within_band(self, epsilon, seed):
        model = VariationModel(epsilon, seed=seed)
        sample = model.sample(10, (6,))
        assert np.all(sample >= 1.0 - epsilon)
        assert np.all(sample <= 1.0 + epsilon)

    def test_mean_close_to_one(self):
        model = VariationModel(0.10, seed=3)
        sample = model.sample(200, (50,))
        assert abs(sample.mean() - 1.0) < 0.005

    def test_deterministic_with_seed(self):
        a = VariationModel(0.1, seed=7).sample(4, (3,))
        b = VariationModel(0.1, seed=7).sample(4, (3,))
        assert np.array_equal(a, b)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            VariationModel(-0.1)
        with pytest.raises(ValueError):
            VariationModel(1.0)

    def test_rejects_bad_n_mc(self):
        with pytest.raises(ValueError):
            VariationModel(0.05, seed=0).sample(0, (3,))
