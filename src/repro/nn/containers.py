"""Module containers."""

from __future__ import annotations

from typing import Iterator

from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)
