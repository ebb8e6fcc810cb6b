"""Circuit devices understood by the DC solver."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spice.egt import EGTModel


@dataclass
class Resistor:
    """Linear resistor between two named nodes."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self):
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name}: resistance must be positive")


@dataclass
class VoltageSource:
    """Ideal DC voltage source; ``node_plus`` is held at ``voltage`` above ``node_minus``."""

    name: str
    node_plus: str
    node_minus: str
    voltage: float


@dataclass
class EGT:
    """Printed electrolyte-gated transistor instance.

    The gate draws no DC current (the electrolyte gate is capacitive); the
    drain-source current follows :class:`~repro.spice.egt.EGTModel`.
    """

    name: str
    drain: str
    gate: str
    source: str
    width: float
    length: float
    model: EGTModel = field(default_factory=EGTModel)

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise ValueError(f"EGT {self.name}: W and L must be positive")
