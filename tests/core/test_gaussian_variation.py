"""Gaussian variation model (extension)."""

import numpy as np
import pytest

from repro.core.variation import GaussianVariationModel, VariationModel


class TestGaussianVariation:
    def test_nominal(self):
        model = GaussianVariationModel(0.0, seed=0)
        assert model.is_nominal
        assert np.all(model.sample(3, (2,)) == 1.0)

    def test_variance_matched_to_uniform(self):
        """σ = ϵ/√3 gives the same variance as U[1−ϵ, 1+ϵ]."""
        epsilon = 0.10
        gaussian = GaussianVariationModel(epsilon, seed=0).sample(4000, (10,))
        uniform = VariationModel(epsilon, seed=0).sample(4000, (10,))
        assert gaussian.std() == pytest.approx(uniform.std(), rel=0.05)

    def test_truncation_at_three_sigma(self):
        model = GaussianVariationModel(0.3, seed=1)
        sample = model.sample(500, (20,))
        assert np.all(sample >= 1.0 - 3 * model.sigma - 1e-12)
        assert np.all(sample <= 1.0 + 3 * model.sigma + 1e-12)

    def test_mean_close_to_one(self):
        sample = GaussianVariationModel(0.1, seed=2).sample(2000, (5,))
        assert abs(sample.mean() - 1.0) < 0.005

    def test_works_inside_pnn_forward(self):
        from repro.core import PrintedNeuralNetwork
        from repro.surrogate import AnalyticSurrogate

        pnn = PrintedNeuralNetwork(
            [2, 3, 2],
            (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight")),
            rng=np.random.default_rng(0),
        )
        out = pnn.snapshot().forward(
            np.random.default_rng(1).uniform(size=(4, 2)),
            variation=GaussianVariationModel(0.1, seed=3),
            n_mc=6,
        )
        assert out.shape == (6, 4, 2)
        assert np.std(out, axis=0).max() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianVariationModel(-0.1)
        with pytest.raises(ValueError):
            GaussianVariationModel(0.1, seed=0).sample(0, (2,))
