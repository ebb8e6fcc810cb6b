"""Base classes for neural-network modules.

:class:`Parameter` is a :class:`~repro.autograd.tensor.Tensor` that always
requires a gradient; :class:`Module` discovers parameters and submodules
assigned as attributes, and provides traversal and state (de)serialization.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even if created inside no_grad().
        self.requires_grad = True


class Module:
    """Base class with automatic parameter and submodule registration."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # traversal                                                          #
    # ------------------------------------------------------------------ #

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    # ------------------------------------------------------------------ #
    # state (de)serialization                                            #
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → array copy of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------ #
    # call protocol                                                      #
    # ------------------------------------------------------------------ #

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
