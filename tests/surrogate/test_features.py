"""Ratio extension and min-max normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.surrogate import FeatureNormalizer, extend_with_ratios
from repro.surrogate.features import FEATURE_NAMES


class TestExtendWithRatios:
    def test_feature_order(self):
        assert FEATURE_NAMES == ("R1", "R2", "R3", "R4", "R5", "W", "L", "k1", "k2", "k3")

    def test_ratios_computed(self):
        omega = np.array([200.0, 80.0, 100e3, 40e3, 100e3, 500.0, 30.0])
        extended = extend_with_ratios(omega[None, :])
        assert extended.shape == (1, 10)
        assert extended[0, 7] == pytest.approx(0.4)          # R2/R1
        assert extended[0, 8] == pytest.approx(0.4)          # R4/R3
        assert extended[0, 9] == pytest.approx(500 / 30)     # W/L

    def test_batch_shapes_preserved(self):
        omega = np.ones((4, 3, 7))
        assert extend_with_ratios(omega).shape == (4, 3, 10)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            extend_with_ratios(np.ones((2, 6)))


class TestFeatureNormalizer:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-5, 20, size=(30, 4))
        normalizer = FeatureNormalizer.fit(data)
        assert np.allclose(normalizer.denormalize(normalizer.normalize(data)), data)

    def test_normalized_range(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(3.0, 9.0, size=(50, 3))
        normalized = FeatureNormalizer.fit(data).normalize(data)
        assert normalized.min() >= 0.0 and normalized.max() <= 1.0

    def test_constant_feature_handled(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        normalizer = FeatureNormalizer.fit(data)
        out = normalizer.normalize(data)
        assert np.all(np.isfinite(out))

    def test_state_round_trip(self):
        normalizer = FeatureNormalizer(np.zeros(3), np.ones(3) * 2)
        restored = FeatureNormalizer.from_state(normalizer.state())
        assert np.allclose(restored.minimum, normalizer.minimum)
        assert np.allclose(restored.maximum, normalizer.maximum)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            FeatureNormalizer(np.ones(2), np.ones(2))
