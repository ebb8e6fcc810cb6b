"""Every backward of the tape against central differences.

The tape records ``+`` (with broadcasting), ``-``, ``*``, ``@``, ``mean``,
``tanh`` and ``mse_loss``.  Each check seeds ``backward`` with a random
cotangent ``g`` and compares every input's gradient with the
``numeric_grad`` central differences of ``sum(g * f(inputs))``.  The
adjoint of broadcasting, :func:`unbroadcast`, has property tests of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd.tensor import unbroadcast


def shapes_broadcastable():
    """Pairs of shapes that numpy can broadcast together."""
    base = st.lists(st.integers(1, 4), min_size=0, max_size=3)

    @st.composite
    def pair(draw):
        target = tuple(draw(base))
        # Derive a second shape by dropping leading axes and/or setting 1s.
        drop = draw(st.integers(0, len(target)))
        other = list(target[drop:])
        for i in range(len(other)):
            if draw(st.booleans()):
                other[i] = 1
        return target, tuple(other)

    return pair()


def assert_vjp_matches_finite_differences(numeric_grad, func, *arrays, seed=0):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = func(*inputs)
    cotangent = np.random.default_rng(seed).normal(size=out.shape)
    out.backward(cotangent)
    for index, tensor in enumerate(inputs):
        def weighted(x, index=index):
            args = [Tensor(x if i == index else a) for i, a in enumerate(arrays)]
            return float((func(*args).data * cotangent).sum())

        numeric = numeric_grad(weighted, arrays[index])
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-5, atol=1e-7,
                                   err_msg=f"input {index}")


def normal(*shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


TARGET = normal(4, 3, seed=9)

CASES = {
    "add": (lambda a, b: a + b, (normal(3, 4, seed=1), normal(3, 4, seed=2))),
    "add_bias_row": (lambda a, b: a + b, (normal(5, 4, seed=1), normal(4, seed=2))),
    "add_column": (lambda a, b: a + b, (normal(3, 4, seed=1), normal(3, 1, seed=2))),
    "add_leading_axis": (lambda a, b: a + b, (normal(2, 3, 4, seed=1), normal(3, 4, seed=2))),
    "add_both_broadcast": (lambda a, b: a + b, (normal(3, 1, seed=1), normal(1, 4, seed=2))),
    "add_python_scalar": (lambda a: a + 2.5, (normal(3, 4, seed=1),)),
    "sub": (lambda a, b: a - b, (normal(3, 4, seed=3), normal(3, 4, seed=4))),
    "sub_bias_row": (lambda a, b: a - b, (normal(5, 4, seed=3), normal(4, seed=4))),
    "sub_column": (lambda a, b: a - b, (normal(3, 4, seed=3), normal(3, 1, seed=4))),
    "sub_zero_dim": (lambda a, b: a - b, (normal(3, 4, seed=3), normal(seed=4))),
    "sub_python_scalar": (lambda a: a - 1.5, (normal(3, 4, seed=3),)),
    "sub_self": (lambda a: a - a, (normal(3, 4, seed=3),)),
    "mul": (lambda a, b: a * b, (normal(3, 4, seed=5), normal(3, 4, seed=6))),
    "mul_bias_row": (lambda a, b: a * b, (normal(5, 4, seed=5), normal(4, seed=6))),
    "mul_zero_dim": (lambda a, b: a * b, (normal(seed=5), normal(3, 4, seed=6))),
    "mul_python_scalar": (lambda a: a * -0.75, (normal(3, 4, seed=5),)),
    "mul_self": (lambda a: a * a, (normal(3, 4, seed=5),)),
    "matmul": (lambda a, b: a @ b, (normal(4, 3, seed=7), normal(3, 5, seed=8))),
    "matmul_batched_input": (lambda a, b: a @ b, (normal(2, 4, 3, seed=7), normal(3, 5, seed=8))),
    "matmul_batched_both": (lambda a, b: a @ b, (normal(2, 4, 3, seed=7), normal(2, 3, 5, seed=8))),
    "matmul_batched_weight": (lambda a, b: a @ b, (normal(4, 3, seed=7), normal(2, 3, 5, seed=8))),
    "matmul_single_output": (lambda a, b: a @ b, (normal(4, 3, seed=7), normal(3, 1, seed=8))),
    "mean": (lambda a: a.mean(), (normal(3, 4, seed=10),)),
    "mean_3d": (lambda a: a.mean(), (normal(2, 3, 4, seed=10),)),
    "mean_single_element": (lambda a: a.mean(), (normal(1, 1, seed=10),)),
    "tanh": (F.tanh, (normal(3, 4, seed=11),)),
    "tanh_3d": (F.tanh, (normal(2, 3, 4, seed=11),)),
    "tanh_times_input": (lambda a: F.tanh(a) * a, (normal(3, 4, seed=11),)),
    "mean_of_tanh": (lambda a: F.tanh(a).mean(), (normal(3, 4, seed=11),)),
    "mse_loss": (lambda p: F.mse_loss(p, TARGET), (normal(4, 3, seed=12),)),
    "mse_loss_tensor_target": (F.mse_loss, (normal(4, 3, seed=12), TARGET)),
    "mse_loss_3d": (F.mse_loss, (normal(2, 4, 3, seed=12), normal(2, 4, 3, seed=9))),
    "mse_loss_broadcast_target": (F.mse_loss, (normal(5, 3, seed=12), normal(3, seed=9))),
    "linear_batched_input": (
        lambda x, w, b: x @ w + b,
        (normal(2, 4, 3, seed=13), normal(3, 5, seed=14), normal(5, seed=15)),
    ),
    "tanh_mlp": (
        lambda x, w1, b1, w2: F.tanh(F.tanh(x @ w1 + b1) @ w2),
        (normal(4, 3, seed=13), normal(3, 5, seed=14), normal(5, seed=15), normal(5, 2, seed=16)),
    ),
    "tanh_mlp_mse": (
        lambda x, w1, b1, w2, b2: F.mse_loss(F.tanh(x @ w1 + b1) @ w2 + b2, TARGET[:, :2]),
        (normal(4, 3, seed=13), normal(3, 5, seed=14), normal(5, seed=15),
         normal(5, 2, seed=16), normal(2, seed=17)),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_backward_matches_finite_differences(name, numeric_grad):
    func, arrays = CASES[name]
    assert_vjp_matches_finite_differences(numeric_grad, func, *arrays)


@given(shapes_broadcastable())
@settings(max_examples=30, deadline=None)
def test_add_under_broadcast(numeric_grad, shapes):
    target, small = shapes
    rng = np.random.default_rng(2)
    assert_vjp_matches_finite_differences(
        numeric_grad, lambda a, b: a + b, rng.normal(size=target), rng.normal(size=small))


@given(shapes_broadcastable())
@settings(max_examples=30, deadline=None)
def test_mul_under_broadcast(numeric_grad, shapes):
    target, small = shapes
    rng = np.random.default_rng(3)
    assert_vjp_matches_finite_differences(
        numeric_grad, lambda a, b: a * b, rng.normal(size=target), rng.normal(size=small) + 2.0)


def test_check_catches_a_wrong_backward(numeric_grad):
    def doubled(x: Tensor) -> Tensor:
        def backward(grad):
            x._accumulate(grad * 3.0)  # wrong: d(2x)/dx is 2

        return Tensor._from_op(x.data * 2.0, (x,), backward, "bad")

    with pytest.raises(AssertionError, match="input 0"):
        assert_vjp_matches_finite_differences(numeric_grad, doubled, [1.0, 2.0])


class TestUnbroadcast:
    @given(shapes_broadcastable())
    @settings(max_examples=60, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, shapes):
        target, small = shapes
        rng = np.random.default_rng(0)
        grad = rng.normal(size=np.broadcast_shapes(target, small))
        reduced = unbroadcast(grad, small)
        assert reduced.shape == small

    @given(shapes_broadcastable())
    @settings(max_examples=60, deadline=None)
    def test_unbroadcast_preserves_total_sum(self, shapes):
        target, small = shapes
        rng = np.random.default_rng(1)
        grad = rng.normal(size=np.broadcast_shapes(target, small))
        reduced = unbroadcast(grad, small)
        assert np.isclose(reduced.sum(), grad.sum())

    def test_identity_when_shapes_match(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)) is grad

    def test_scalar_broadcast_gradient(self):
        x = Tensor(5.0, requires_grad=True)
        y = Tensor(np.ones((3, 4)), requires_grad=True)
        (x * y).backward(np.ones((3, 4)))
        assert np.isclose(x.grad, 12.0)
        assert np.allclose(y.grad, 5.0)
