"""Physical cost model of a printed neuromorphic design.

The printed-electronics argument for analog neuromorphic circuits is
resource count: "a 3-input digital neuron needs hundreds of transistors, an
analog one fewer than ten" (Sec. II-B).  This module quantifies a trained
design:

- **device counts** — printed resistors, transistors, negative-weight
  circuit instances;
- **printed area** — feature sizes in printed electronics are on the order
  of a millimetre per passive component (Sec. IV-A); transistor area scales
  with the learned W·L;
- **static power** — crossbar branch dissipation at nominal operating
  voltages plus the bias currents of the inverter stages, evaluated with
  the circuit solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.circuits.ptanh import VDD, ptanh_param_batch, ptanh_stamp_plan
from repro.core.pnn import PrintedNeuralNetwork
from repro.exporting.report import LayerReport, design_report
from repro.spice.batch import solve_dc_batch

#: Printed footprint of one passive component (mm²), order-of-magnitude per
#: the paper's remark that component feature sizes are ~1 mm.
RESISTOR_AREA_MM2 = 1.0

#: Fixed overhead of one nonlinear circuit beyond its transistors (mm²):
#: five resistors plus routing.
NONLINEAR_OVERHEAD_MM2 = 5.0


@dataclass
class DesignCost:
    """Resource summary of one printable design."""

    n_resistors: int
    n_transistors: int
    n_negweight_circuits: int
    area_mm2: float
    static_power_uw: float

    def summary(self) -> str:
        return (
            f"printed resistors    : {self.n_resistors}\n"
            f"printed transistors  : {self.n_transistors}\n"
            f"neg-weight circuits  : {self.n_negweight_circuits}\n"
            f"printed area         : {self.area_mm2:.1f} mm²\n"
            f"static power         : {self.static_power_uw:.1f} µW"
        )


def layer_circuit_power(layer: LayerReport) -> Tuple[np.ndarray, float]:
    """Static power (W) of a layer's activation circuits and of its negation circuit.

    One batched DC solve covers every activation ω row and the first
    negation ω, each at a mid-range input of 0.5 V; a circuit draws the
    power its supply rail delivers, ``|I_Vdd| · VDD``.  A circuit whose
    Newton iteration does not converge counts as 0 W.
    """
    omegas = np.concatenate([layer.activation_omega, layer.negation_omega[:1]])
    plan = ptanh_stamp_plan()
    solution = solve_dc_batch(plan, ptanh_param_batch(omegas, plan), vin_batch={"Vin": 0.5})
    supply = np.abs(solution.source_currents[:, plan.source_index("Vdd")]) * VDD
    power = np.where(solution.converged, supply, 0.0)
    return power[:-1], power[-1]


def _crossbar_power(resistances: np.ndarray, negated: np.ndarray) -> float:
    """Static dissipation of one crossbar (W), worst-case input spread.

    Branch dissipation is ``ΔV² / R`` with ΔV bounded by the 1 V rail; a
    representative mid-spread of 0.5 V is used per branch.
    """
    finite = np.isfinite(resistances)
    if not finite.any():
        return 0.0
    delta_v = 0.5
    return float((delta_v**2 / resistances[finite]).sum())


def estimate_cost(pnn: PrintedNeuralNetwork) -> DesignCost:
    """Estimate the physical cost of a trained design."""
    report = design_report(pnn)
    n_resistors = 0
    n_transistors = 0
    n_negweight = 0
    area = 0.0
    power = 0.0

    for layer_report in report.layers:
        printed = np.isfinite(layer_report.crossbar_resistances)
        n_resistors += int(printed.sum())
        area += printed.sum() * RESISTOR_AREA_MM2
        power += _crossbar_power(
            layer_report.crossbar_resistances, layer_report.negated_inputs
        )

        # Negative-weight circuits: one per input line that any column
        # negates (a printed inverter can fan out to several columns).
        negated_lines = layer_report.negated_inputs.any(axis=1)
        n_negweight += int(negated_lines.sum())

        # One activation circuit per (shared or per-neuron) instance plus
        # the negative-weight instances; each has 2 EGTs and 5 resistors.
        act_power, neg_power = layer_circuit_power(layer_report)
        for omega, circuit_power in zip(layer_report.activation_omega, act_power):
            n_transistors += 2
            n_resistors += 5
            width_mm = omega[5] / 1000.0
            length_mm = omega[6] / 1000.0
            area += NONLINEAR_OVERHEAD_MM2 + 2 * width_mm * length_mm
            power += circuit_power
        for _ in range(int(negated_lines.sum())):
            omega = layer_report.negation_omega[0]
            n_transistors += 2
            n_resistors += 5
            area += NONLINEAR_OVERHEAD_MM2 + 2 * (omega[5] / 1000.0) * (omega[6] / 1000.0)
            power += neg_power

    return DesignCost(
        n_resistors=n_resistors,
        n_transistors=n_transistors,
        n_negweight_circuits=n_negweight,
        area_mm2=float(area),
        static_power_uw=float(power * 1e6),
    )
