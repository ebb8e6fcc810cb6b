"""Margin loss with more than two classes (pendigits has ten)."""

import numpy as np
import pytest

from repro.core.grad_kernels import margin_loss_bwd, margin_loss_fwd


def margin(v, targets, m=0.3):
    value, _ = margin_loss_fwd(np.asarray(v, dtype=np.float64), np.asarray(targets), margin=m)
    return value


class TestMultiClassMargin:
    def test_counts_every_violating_competitor(self):
        # True class 0 at 0.5; competitors at 0.5 and 0.4: shortfalls 0.3, 0.2.
        expected = 0.3**2 + 0.2**2
        assert margin([[[0.5, 0.5, 0.4]]], [0]) == pytest.approx(expected)

    def test_satisfied_multiclass_is_zero(self):
        assert margin([[[0.9, 0.1, 0.2, 0.3]]], [0], m=0.2) == 0.0

    def test_batch_averaging(self):
        good = [0.9, 0.0, 0.0]
        bad = [0.4, 0.5, 0.0]
        # competitor 1: 0.3 - (0.4 - 0.5) = 0.4 → 0.16; competitor 2: 0.3 - 0.4 = -0.1 → 0.
        assert margin([[good, bad]], [0, 0]) == pytest.approx((0.0 + 0.16) / 2.0)

    def test_gradcheck_ten_classes(self, numeric_grad):
        targets = np.random.default_rng(0).integers(0, 10, size=6)
        v = np.random.default_rng(1).uniform(0.0, 1.0, size=(2, 6, 10))
        _, ctx = margin_loss_fwd(v, targets)
        analytic = margin_loss_bwd(ctx)
        numeric = numeric_grad(lambda w: margin(w, targets), v)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)

    def test_ten_class_argmax_training_signal(self):
        """Gradient must single out exactly the violating competitors."""
        v = np.array([[[0.5, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]])
        _, ctx = margin_loss_fwd(v, np.array([0]))
        grad = margin_loss_bwd(ctx)[0, 0]
        assert grad[0] < 0          # push true class up
        assert grad[1] > 0          # push the violating class down
        assert np.allclose(grad[3:], grad[3])   # non-violators get equal (small) pushes
