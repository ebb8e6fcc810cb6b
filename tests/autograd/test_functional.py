"""Tests for the differentiable functions: values + gradcheck everywhere."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import functional as F


def randt(*shape, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) + shift)


class TestValues:
    def test_exp_log_sqrt(self):
        x = Tensor([1.0, 4.0])
        assert np.allclose(F.exp(x).data, np.exp([1, 4]))
        assert np.allclose(F.log(x).data, np.log([1, 4]))
        assert np.allclose(F.sqrt(x).data, [1, 2])

    def test_tanh_sigmoid_match_numpy(self):
        x = randt(7, seed=1)
        assert np.allclose(F.tanh(x).data, np.tanh(x.data))
        assert np.allclose(F.sigmoid(x).data, 1 / (1 + np.exp(-x.data)))

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-800.0, 800.0])
        out = F.sigmoid(x).data
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.0, 1.0])

    def test_softplus_extreme_values_stable(self):
        out = F.softplus(Tensor([-800.0, 0.0, 800.0])).data
        assert np.all(np.isfinite(out))
        assert np.isclose(out[1], np.log(2.0))
        assert np.isclose(out[2], 800.0)

    def test_relu_leaky_abs_sign(self):
        x = Tensor([-2.0, 0.0, 3.0])
        assert np.allclose(F.relu(x).data, [0, 0, 3])
        assert np.allclose(F.leaky_relu(x, 0.1).data, [-0.2, 0, 3])
        assert np.allclose(F.abs(x).data, [2, 0, 3])
        assert np.allclose(F.sign(x).data, [-1, 0, 1])

    def test_clip(self):
        x = Tensor([-2.0, 0.5, 2.0])
        assert np.allclose(F.clip(x, -1, 1).data, [-1, 0.5, 1])

    def test_where_and_maximum(self):
        a, b = Tensor([1.0, 5.0]), Tensor([4.0, 2.0])
        assert np.allclose(F.where(a.data > 2, a, b).data, [4, 5])
        assert np.allclose(F.maximum(a, b).data, [4, 5])

    def test_concat_stack_broadcast(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 1)))
        assert F.concatenate([a, b], axis=1).shape == (2, 3)
        assert F.stack([a, a], axis=0).shape == (2, 2, 2)
        assert F.broadcast_to(b, (2, 5)).shape == (2, 5)

    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(randt(4, 5, seed=2)).data
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert np.all(out > 0)

    def test_softmax_shift_invariant(self):
        x = randt(3, 4, seed=3)
        shifted = Tensor(x.data + 1000.0)
        assert np.allclose(F.softmax(x).data, F.softmax(shifted).data)

    def test_log_softmax_consistent_with_softmax(self):
        x = randt(3, 4, seed=4)
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_cross_entropy_matches_manual(self):
        logits = randt(5, 3, seed=5)
        targets = np.array([0, 2, 1, 1, 0])
        manual = -np.mean(
            np.log(F.softmax(logits).data[np.arange(5), targets])
        )
        assert np.isclose(F.cross_entropy(logits, targets).item(), manual)

    def test_mse_loss(self):
        a, b = Tensor([1.0, 2.0]), np.array([0.0, 0.0])
        assert np.isclose(F.mse_loss(a, b).item(), 2.5)


class TestGradients:
    @pytest.mark.parametrize(
        "func",
        [
            F.exp,
            F.tanh,
            F.sigmoid,
            F.softplus,
            lambda x: F.leaky_relu(x, 0.1),
            F.softmax,
            F.log_softmax,
        ],
        ids=["exp", "tanh", "sigmoid", "softplus", "leaky_relu", "softmax", "log_softmax"],
    )
    def test_smooth_elementwise(self, func):
        assert gradcheck(func, [randt(3, 4, seed=11)])

    def test_log_sqrt_positive_domain(self):
        x = Tensor(np.random.default_rng(3).uniform(0.5, 2.0, size=6))
        assert gradcheck(F.log, [x])
        assert gradcheck(F.sqrt, [x])

    def test_abs_away_from_zero(self):
        x = Tensor(np.array([-2.0, -0.7, 0.9, 1.5]))
        assert gradcheck(F.abs, [x])

    def test_clip_gradient_masks_outside(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        F.clip(x, -1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_where_gradient_routes(self):
        a = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        F.where(np.array([True, False]), a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0])
        assert np.allclose(b.grad, [0, 1])

    def test_concatenate_gradient(self):
        assert gradcheck(
            lambda a, b: F.concatenate([a, b], axis=1),
            [randt(2, 3, seed=6), randt(2, 2, seed=7)],
        )

    def test_stack_gradient(self):
        assert gradcheck(lambda a, b: F.stack([a, b], axis=0), [randt(3, seed=8), randt(3, seed=9)])

    def test_broadcast_to_gradient_sums(self):
        x = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        F.broadcast_to(x, (2, 5)).sum().backward()
        assert np.allclose(x.grad, [[5.0], [5.0]])

    def test_cross_entropy_gradient(self):
        targets = np.array([0, 2, 1])
        assert gradcheck(lambda x: F.cross_entropy(x, targets), [randt(3, 3, seed=10)])

    def test_maximum_gradient_off_ties(self):
        a = Tensor(np.array([1.0, 5.0]))
        b = Tensor(np.array([4.0, 2.0]))
        assert gradcheck(F.maximum, [a, b])

    def test_sign_gradient_is_zero(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        F.sign(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 0.0])
