"""Reverse-mode automatic differentiation on numpy arrays.

This package is the training substrate of the surrogate MLP (Fig. 3): the
paper relies on PyTorch autodiff, which is not available in this
environment, so an equivalent reverse-mode engine is implemented here from
scratch.  (The pNN itself trains on the hand-derived VJPs of
:mod:`repro.core.grad_kernels`.)

Public API:

- :class:`~repro.autograd.tensor.Tensor` — an ndarray with a gradient tape.
- :mod:`~repro.autograd.functional` — differentiable functions on tensors
  (``tanh``, ``sigmoid``, ``softmax``, ``clip``, reductions, ...).
- :func:`~repro.autograd.gradcheck.gradcheck` — finite-difference gradient
  verification used throughout the test suite.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd import functional
from repro.autograd.gradcheck import gradcheck

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "functional", "gradcheck"]
