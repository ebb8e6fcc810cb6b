"""Values of the differentiable functions (their gradients: test_gradients.py)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.autograd import functional as F


class TestValues:
    def test_tanh_matches_numpy(self):
        x = Tensor(np.random.default_rng(1).normal(size=7))
        assert np.allclose(F.tanh(x).data, np.tanh(x.data))

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_tanh_bounded(self, values):
        assert np.all(np.abs(F.tanh(Tensor(values)).data) <= 1.0)

    def test_mse_loss(self):
        a, b = Tensor([1.0, 2.0]), np.array([0.0, 0.0])
        assert np.isclose(F.mse_loss(a, b).item(), 2.5)

    def test_mse_loss_zero_for_exact(self):
        assert F.mse_loss(Tensor([1.0, 2.0]), np.array([1.0, 2.0])).item() == 0.0
