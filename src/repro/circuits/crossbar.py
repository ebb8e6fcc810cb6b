"""Resistor crossbar: the weighted-sum primitive (Eq. 1).

A crossbar column connects every input voltage ``V_i`` through a printed
resistor ``R_i^C`` to a shared output node ``V_z``, together with a bias
resistor to ``V_b`` and a "down" resistor to ground.  Kirchhoff's current
law gives

    V_z = Σ_i (g_i / G) V_i + (g_b / G) V_b,     G = Σ_i g_i + g_b + g_d

which is the weighted sum (with bias) the pNN training treats as a linear
layer.  This module provides both the analytic expression for one column
and a netlist builder, so the tests can check Eq. 1 against the circuit
solver and the pNN's vectorized crossbar
(:func:`repro.core.grad_kernels.crossbar_fwd`) against both: it is the
tests' physics reference, not part of the pNN forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.spice.netlist import GROUND, Netlist


@dataclass
class CrossbarColumn:
    """One output column of a printed resistor crossbar.

    Attributes
    ----------
    input_conductances:
        Conductances ``g_i^C`` (S) from each input line to the output node.
    bias_conductance:
        Conductance ``g_b^C`` from the bias rail ``V_b`` to the output node.
    down_conductance:
        Conductance ``g_d^C`` from the output node to ground.
    bias_voltage:
        Bias rail voltage ``V_b`` (1 V by default, as in the paper).
    """

    input_conductances: Sequence[float]
    bias_conductance: float
    down_conductance: float
    bias_voltage: float = 1.0

    def __post_init__(self):
        self.input_conductances = np.asarray(self.input_conductances, dtype=np.float64)
        if np.any(self.input_conductances < 0):
            raise ValueError("conductances must be non-negative")
        if self.bias_conductance < 0 or self.down_conductance < 0:
            raise ValueError("conductances must be non-negative")

    @property
    def total_conductance(self) -> float:
        """The normalizer G = Σ g_i + g_b + g_d."""
        return float(
            self.input_conductances.sum() + self.bias_conductance + self.down_conductance
        )

    def weights(self) -> np.ndarray:
        """Effective weights ``g_i / G`` of the weighted sum."""
        return self.input_conductances / self.total_conductance

    def bias_weight(self) -> float:
        return self.bias_conductance / self.total_conductance


def crossbar_output(column: CrossbarColumn, input_voltages: Sequence[float]) -> float:
    """Analytic output voltage of one crossbar column (Eq. 1)."""
    inputs = np.asarray(input_voltages, dtype=np.float64)
    if inputs.shape != column.input_conductances.shape:
        raise ValueError("number of input voltages must match number of conductances")
    return float(inputs @ column.weights() + column.bias_weight() * column.bias_voltage)


def crossbar_netlist(
    column: CrossbarColumn,
    input_voltages: Sequence[float],
    output_node: str = "vz",
) -> Netlist:
    """Build the crossbar column as a netlist for solver cross-checks.

    Zero conductances mean "not printed" and are omitted from the netlist.
    """
    inputs = np.asarray(input_voltages, dtype=np.float64)
    netlist = Netlist("crossbar-column")
    for i, (g, v) in enumerate(zip(column.input_conductances, inputs)):
        node = f"in{i}"
        netlist.add_voltage_source(f"Vin{i}", node, GROUND, float(v))
        if g > 0:
            netlist.add_resistor(f"Rc{i}", node, output_node, 1.0 / g)
    netlist.add_voltage_source("Vb", "bias", GROUND, column.bias_voltage)
    if column.bias_conductance > 0:
        netlist.add_resistor("Rb", "bias", output_node, 1.0 / column.bias_conductance)
    if column.down_conductance > 0:
        netlist.add_resistor("Rd", output_node, GROUND, 1.0 / column.down_conductance)
    return netlist
