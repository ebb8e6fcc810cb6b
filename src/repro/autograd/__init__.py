"""Reverse-mode automatic differentiation on numpy arrays.

This package is the training substrate of the surrogate MLP (Fig. 3): the
paper relies on PyTorch autodiff, which is not available in this
environment, so a reverse-mode engine is implemented here from scratch.  It
carries exactly the operations the surrogate's tape records.  (The pNN
itself trains on the hand-derived VJPs of :mod:`repro.core.grad_kernels`.)

Public API:

- :class:`~repro.autograd.tensor.Tensor` — an ndarray with a gradient tape
  (``+``, ``-``, ``*``, ``@``, ``mean``); :func:`~repro.autograd.tensor.no_grad`
  suspends recording.
- :mod:`~repro.autograd.functional` — ``tanh`` and ``mse_loss``.
"""

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import functional

__all__ = ["Tensor", "no_grad", "functional"]
