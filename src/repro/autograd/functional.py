"""Differentiable functions on :class:`~repro.autograd.tensor.Tensor`.

These complement the arithmetic operators defined on the tensor class with
the nonlinearities, projections and reductions used by the surrogate
models.  Every function records the appropriate
adjoint on the tape; the test suite verifies each against finite differences.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor

Scalar = Union[int, float]


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# --------------------------------------------------------------------- #
# smooth elementwise nonlinearities                                     #
# --------------------------------------------------------------------- #


def exp(x: Tensor) -> Tensor:
    """Elementwise natural exponential."""
    x = _wrap(x)
    data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data)

    return Tensor._from_op(data, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm (positive domain)."""
    x = _wrap(x)
    data = np.log(x.data)
    x_data = x.data

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / x_data)

    return Tensor._from_op(data, (x,), backward, "log")


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root (non-negative domain)."""
    x = _wrap(x)
    data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * 0.5 / data)

    return Tensor._from_op(data, (x,), backward, "sqrt")


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _wrap(x)
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - data * data))

    return Tensor._from_op(data, (x,), backward, "tanh")


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function computed without overflow for any magnitude."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, overflow-safe."""
    x = _wrap(x)
    data = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data * (1.0 - data))

    return Tensor._from_op(data, (x,), backward, "sigmoid")


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)
    mask = (x.data > 0).astype(np.float64)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._from_op(data, (x,), backward, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """ReLU with a small slope on the negative side."""
    x = _wrap(x)
    slope = np.where(x.data > 0, 1.0, negative_slope)
    data = x.data * slope

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * slope)

    return Tensor._from_op(data, (x,), backward, "leaky_relu")


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """``log(1 + exp(beta * x)) / beta`` computed in a numerically stable way."""
    x = _wrap(x)
    z = beta * x.data
    data = (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))) / beta
    sig = _stable_sigmoid(z)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * sig)

    return Tensor._from_op(data, (x,), backward, "softplus")


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors the numpy/torch name
    """Elementwise absolute value (subgradient sign(x) at 0 → 0)."""
    x = _wrap(x)
    data = np.abs(x.data)
    sign_data = np.sign(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * sign_data)

    return Tensor._from_op(data, (x,), backward, "abs")


def sign(x: Tensor) -> Tensor:
    """Sign with zero gradient everywhere (a hard, non-differentiable gate)."""
    x = _wrap(x)

    def backward(grad: np.ndarray) -> None:  # pragma: no cover - zero grad
        x._accumulate(np.zeros_like(grad))

    return Tensor._from_op(np.sign(x.data), (x,), backward, "sign")


# --------------------------------------------------------------------- #
# projections                                                           #
# --------------------------------------------------------------------- #


def clip(x: Tensor, low: Scalar, high: Scalar) -> Tensor:
    """Clamp with the exact (zero outside the range) gradient."""
    x = _wrap(x)
    data = np.clip(x.data, low, high)
    mask = ((x.data >= low) & (x.data <= high)).astype(np.float64)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._from_op(data, (x,), backward, "clip")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select elementwise from ``a`` where ``condition`` else ``b``.

    ``condition`` is a plain boolean array (it carries no gradient).
    """
    a, b = _wrap(a), _wrap(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(np.where(cond, grad, 0.0))
        b._accumulate(np.where(cond, 0.0, grad))

    return Tensor._from_op(data, (a, b), backward, "where")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; on ties the gradient is split equally."""
    a, b = _wrap(a), _wrap(b)
    data = np.maximum(a.data, b.data)
    a_wins = (a.data > b.data).astype(np.float64)
    ties = (a.data == b.data).astype(np.float64) * 0.5

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (a_wins + ties))
        b._accumulate(grad * (1.0 - a_wins - ties))

    return Tensor._from_op(data, (a, b), backward, "maximum")


# --------------------------------------------------------------------- #
# shaping                                                               #
# --------------------------------------------------------------------- #


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._from_op(data, tuple(tensors), backward, "concatenate")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along a new axis."""
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, slices):
            tensor._accumulate(piece)

    return Tensor._from_op(data, tuple(tensors), backward, "stack")


def broadcast_to(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicitly broadcast to ``shape`` (adjoint sums over new axes)."""
    x = _wrap(x)
    shape = tuple(shape)
    data = np.broadcast_to(x.data, shape).copy()

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad)  # _accumulate unbroadcasts

    return Tensor._from_op(data, (x,), backward, "broadcast_to")


# --------------------------------------------------------------------- #
# softmax family                                                        #
# --------------------------------------------------------------------- #


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along ``axis``."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (grad - dot))

    return Tensor._from_op(data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log of the softmax along ``axis``."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm
    soft = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._from_op(data, (x,), backward, "log_softmax")


def cross_entropy(logits: Tensor, targets: np.ndarray, axis: int = -1) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``targets`` holds class indices along the last axis of ``logits``; any
    leading batch axes are averaged over.
    """
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=axis)
    batch_shape = logits.data.shape[:-1]
    if targets.shape != batch_shape:
        targets = np.broadcast_to(targets, batch_shape)
    one_hot = np.zeros(log_probs.shape)
    np.put_along_axis(one_hot, targets[..., None], 1.0, axis=-1)
    return -(log_probs * Tensor(one_hot)).sum(axis=-1).mean()


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error over all elements."""
    prediction = _wrap(prediction)
    target = _wrap(target)
    diff = prediction - target
    return (diff * diff).mean()
