"""The :class:`Tensor` class: a numpy array with a reverse-mode gradient tape.

The implementation follows the classic define-by-run design: every
differentiable operation returns a new :class:`Tensor` holding references to
its parents and a closure that accumulates gradients into them.  Calling
:meth:`Tensor.backward` topologically sorts the recorded graph and runs the
closures in reverse order.

The operations are the ones the surrogate MLP records: ``+``, ``-``, ``*``,
``@`` and the mean over all elements (:mod:`repro.autograd.functional` adds
``tanh`` and the MSE loss).  Broadcasting is supported: gradients flowing
into an operand whose shape was broadcast are reduced back to the operand's
shape by :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, float]
ArrayLike = Union[Scalar, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    When an operand of shape ``shape`` was broadcast during the forward pass,
    the incoming gradient has the broadcast shape.  The adjoint of
    broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A float64 ndarray with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        When ``True``, gradients are accumulated in :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(
            data.data if isinstance(data, Tensor) else data, dtype=np.float64
        )
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------ #
    # graph construction                                                 #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Build a graph node from an operation result.

        ``backward`` receives the output gradient and is responsible for
        calling :meth:`_accumulate` on each parent that requires a gradient.
        """
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._backward = backward
            out._parents = parents
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer (creating it lazily)."""
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required for
            non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying array."""
        return self.data.copy()

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error() -> float:
        raise ValueError("item() requires a one-element tensor")

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=5)}{grad_flag})"

    # ------------------------------------------------------------------ #
    # elementwise arithmetic                                             #
    # ------------------------------------------------------------------ #

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._from_op(data, (self, other), backward, "add")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._from_op(data, (self, other), backward, "sub")

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other_data)
            other._accumulate(grad * self_data)

        return Tensor._from_op(data, (self, other), backward, "mul")

    # ------------------------------------------------------------------ #
    # linear algebra and reduction                                       #
    # ------------------------------------------------------------------ #

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product of operands with at least two dimensions.

        Leading (batch) dimensions broadcast as in ``numpy.matmul``; the
        surrogate multiplies 2-D or 3-D inputs by 2-D weights.
        """
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires tensors with at least two dimensions")
        data = self.data @ other.data
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad @ np.swapaxes(other_data, -1, -2))
            other._accumulate(np.swapaxes(self_data, -1, -2) @ grad)

        return Tensor._from_op(data, (self, other), backward, "matmul")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def mean(self) -> "Tensor":
        """Mean over all elements."""
        data = self.data.mean()
        shape = self.data.shape
        count = self.data.size

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.broadcast_to(grad, shape) / count)

        return Tensor._from_op(data, (self,), backward, "mean")
