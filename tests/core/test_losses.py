"""pNN losses: margin loss and voltage cross-entropy (the loss kernels)."""

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core.grad_kernels import (
    LOSS_KERNELS,
    ce_loss_bwd,
    ce_loss_fwd,
    margin_loss_bwd,
    margin_loss_fwd,
)


def voltages(*rows):
    """Build a (1, batch, classes) voltage array."""
    return np.asarray(rows, dtype=np.float64)[None, :, :]


def margin(v, targets, m=0.3):
    value, _ = margin_loss_fwd(v, np.asarray(targets), margin=m)
    return value


def cross_entropy(v, targets, temperature=0.1):
    value, _ = ce_loss_fwd(v, np.asarray(targets), temperature=temperature)
    return value


class TestMarginLoss:
    def test_zero_when_margin_satisfied(self):
        assert margin(voltages([0.9, 0.1], [0.0, 0.8]), [0, 1]) == pytest.approx(0.0)

    def test_penalizes_margin_violation(self):
        # shortfall = 0.3 − 0.1 = 0.2 → squared 0.04
        assert margin(voltages([0.6, 0.5]), [0]) == pytest.approx(0.04)

    def test_wrong_prediction_costs_more_than_weak_margin(self):
        weak = margin(voltages([0.6, 0.5]), [0])
        wrong = margin(voltages([0.4, 0.7]), [0])
        assert wrong > weak

    def test_true_class_not_self_penalized(self):
        # One class only appears via the masked diagonal; a two-class case
        # where the other voltage is far below: exact zero loss expected.
        assert margin(voltages([0.9, 0.0]), [0]) == 0.0

    def test_averages_over_mc_axis(self):
        good = np.array([[[0.9, 0.0]]])
        bad = np.array([[[0.4, 0.7]]])
        stacked = np.concatenate([good, bad], axis=0)
        single_bad = margin(bad, [0])
        combined = margin(stacked, [0])
        assert combined == pytest.approx(single_bad / 2.0)

    def test_gradient_pushes_true_class_up(self):
        _, ctx = margin_loss_fwd(np.array([[[0.5, 0.5]]]), np.array([0]))
        grad = margin_loss_bwd(ctx)
        assert grad[0, 0, 0] < 0      # increase the true voltage
        assert grad[0, 0, 1] > 0      # decrease the competitor

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            margin_loss_fwd(np.zeros((2, 3)), np.array([0, 1]))
        with pytest.raises(ValueError):
            margin_loss_fwd(np.zeros((1, 2, 3)), np.array([0]))

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            margin_loss_fwd(voltages([0.6, 0.5]), np.array([0]), margin=0.0)


class TestVoltageCrossEntropy:
    def test_decreases_with_separation(self):
        close = cross_entropy(voltages([0.51, 0.49]), [0])
        separated = cross_entropy(voltages([0.9, 0.1]), [0])
        assert separated < close

    def test_temperature_sharpens(self):
        v = voltages([0.7, 0.3])
        assert cross_entropy(v, [0], temperature=0.05) < cross_entropy(v, [0], temperature=0.5)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            ce_loss_fwd(voltages([0.7, 0.3]), np.array([0]), temperature=0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ce_loss_fwd(np.zeros((2, 3)), np.array([0]))

    def test_gradient_pushes_true_class_up(self):
        _, ctx = ce_loss_fwd(np.array([[[0.5, 0.5]]]), np.array([0]))
        grad = ce_loss_bwd(ctx)
        assert grad[0, 0, 0] < 0 < grad[0, 0, 1]


class TestFactory:
    def test_known_losses(self):
        assert LOSS_KERNELS["margin"] == (margin_loss_fwd, margin_loss_bwd)
        assert LOSS_KERNELS["ce"] == (ce_loss_fwd, ce_loss_bwd)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="'ce', 'margin'"):
            TrainConfig(loss="hinge")
