"""Differentiable functions on :class:`~repro.autograd.tensor.Tensor`.

These complement the arithmetic operators of the tensor class with the
hidden-layer nonlinearity and the loss of the surrogate MLP.  Each records
its adjoint on the tape; the test suite checks both against finite
differences.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.autograd.tensor import Tensor


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _wrap(x)
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - data * data))

    return Tensor._from_op(data, (x,), backward, "tanh")


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error over all elements."""
    prediction = _wrap(prediction)
    target = _wrap(target)
    diff = prediction - target
    return (diff * diff).mean()
