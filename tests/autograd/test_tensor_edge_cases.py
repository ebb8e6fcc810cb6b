"""Edge cases of the tensor engine."""

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F


class TestMixedRequiresGrad:
    def test_grad_only_flows_to_tracked_inputs(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0])                      # not tracked
        (a * b).backward(np.array([1.0]))
        assert np.allclose(a.grad, [3.0])
        assert b.grad is None

    def test_constant_subgraph_pruned(self):
        a = Tensor([1.0])
        b = Tensor([2.0])
        out = a + b
        assert not out.requires_grad
        assert out._backward is None


class TestNumericalEdges:
    def test_zero_batch_forward(self):
        x = Tensor(np.zeros((0, 3)))
        w = Tensor(np.ones((3, 2)))
        assert (x @ w).shape == (0, 2)

    def test_single_element_mean(self):
        assert Tensor([[5.0]]).mean().item() == 5.0

    def test_large_values_through_tanh(self):
        out = F.tanh(Tensor([1e6, -1e6])).data
        assert np.allclose(out, [1.0, -1.0])

    def test_tanh_gradient_vanishes_without_nan(self):
        x = Tensor([1e6, -1e6, 0.0], requires_grad=True)
        F.tanh(x).backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_zero_batch_weight_gradient_is_zero(self):
        x = Tensor(np.zeros((0, 3)))
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        (x @ w).backward(np.zeros((0, 2)))
        np.testing.assert_array_equal(w.grad, np.zeros((3, 2)))

    def test_mse_loss_gradient_is_twice_the_mean_residual(self):
        prediction = Tensor([[1.0, 4.0], [-2.0, 0.5]], requires_grad=True)
        target = np.array([[0.0, 1.0], [1.0, 0.5]])
        F.mse_loss(prediction, target).backward()
        np.testing.assert_allclose(prediction.grad, 2.0 * (prediction.data - target) / 4)


class TestAccumulationSemantics:
    def test_second_backward_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3).backward()
        (x * 3).backward()
        assert np.isclose(x.grad, 6.0)

    def test_intermediate_grads_available(self):
        x = Tensor(2.0, requires_grad=True)
        mid = x * 3
        (mid * 4).backward()
        assert np.isclose(mid.grad, 4.0)
        assert np.isclose(x.grad, 12.0)

    def test_reused_tensor_in_two_losses(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = (w * 2).mean() + (w * w).mean()
        loss.backward()
        assert np.allclose(w.grad, (2.0 + 2.0 * np.ones(3)) / 3)
