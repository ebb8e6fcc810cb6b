"""Activation modules wrapping :mod:`repro.autograd.functional`."""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)
