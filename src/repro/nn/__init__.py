"""A small neural-network module system on top of :mod:`repro.autograd`.

Mirrors the subset of ``torch.nn`` the surrogate MLP needs: parameter
registration, traversal and state dicts, linear layers, the ``tanh``
activation and a sequential container.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.containers import Sequential
from repro.nn.activations import Tanh
from repro.nn import init

__all__ = ["Module", "Parameter", "Linear", "Sequential", "Tanh", "init"]
