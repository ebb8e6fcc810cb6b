"""Bill-of-components report for a trained pNN.

Works from the frozen :class:`~repro.core.params.PNNParams` snapshot —
the printable θ/ω values are exactly what a snapshot holds — so both live
networks (snapshotted on the fly) and cached/deserialized designs export
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from repro.core.params import PNNParams, snapshot_params
from repro.core.pnn import PrintedNeuralNetwork

#: Physical conductance corresponding to surrogate conductance 1.0 (S).
#: Surrogate conductances are dimensionless (crossbar weights are scale
#: invariant); this scale maps the printable band [0.01, 10] onto printed
#: resistances of 10 kΩ .. 10 MΩ, a comfortable inkjet-printable range.
PHYSICAL_SCALE = 1e-5


@dataclass
class LayerReport:
    """Printable description of one layer."""

    index: int
    crossbar_resistances: np.ndarray   # (in+2, out) in ohms; inf = not printed
    negated_inputs: np.ndarray         # boolean mask, same shape
    activation_omega: np.ndarray       # (n_circuits, 7)
    negation_omega: np.ndarray         # (n_circuits, 7)
    #: Devices with non-finite resistance that carry *zero* conductance
    #: (θ == 0) — genuinely unprinted, skipping them is exact.
    skipped_zero: int = 0
    #: Devices with non-finite resistance whose θ is *nonzero* (NaN θ, or a
    #: magnitude so small the physical resistance overflows).  Skipping
    #: these drops real conductance: the exported circuit diverges from the
    #: trained model, so `verify_deployment` refuses such designs.
    skipped_load_bearing: int = 0

    @property
    def printed_resistor_count(self) -> int:
        return int(np.isfinite(self.crossbar_resistances).sum())

    @property
    def skipped_device_count(self) -> int:
        return self.skipped_zero + self.skipped_load_bearing


@dataclass
class DesignReport:
    """Full printable design of a trained pNN."""

    layer_sizes: List[int]
    layers: List[LayerReport] = field(default_factory=list)

    @property
    def total_printed_resistors(self) -> int:
        return sum(layer.printed_resistor_count for layer in self.layers)

    @property
    def total_skipped_devices(self) -> int:
        return sum(layer.skipped_device_count for layer in self.layers)

    @property
    def total_load_bearing_skips(self) -> int:
        return sum(layer.skipped_load_bearing for layer in self.layers)

    def summary(self) -> str:
        lines = [
            f"pNN design: topology {'-'.join(str(s) for s in self.layer_sizes)}",
            f"printed crossbar resistors: {self.total_printed_resistors}",
        ]
        if self.total_skipped_devices:
            lines.append(
                f"skipped devices: {self.total_skipped_devices} "
                f"({self.total_load_bearing_skips} load-bearing)"
            )
        for layer in self.layers:
            finite = layer.crossbar_resistances[np.isfinite(layer.crossbar_resistances)]
            lines.append(
                f"  layer {layer.index}: {layer.printed_resistor_count} resistors "
                f"({finite.min() / 1e3:.1f} kΩ .. {finite.max() / 1e6:.2f} MΩ), "
                f"{int(layer.negated_inputs.sum())} negative-weight routes"
            )
            for c, omega in enumerate(layer.activation_omega):
                lines.append(
                    f"    activation circuit {c}: "
                    + _format_omega(omega)
                )
            for c, omega in enumerate(layer.negation_omega):
                lines.append(f"    negation circuit {c}:   " + _format_omega(omega))
        return "\n".join(lines)


def _format_omega(omega: np.ndarray) -> str:
    r1, r2, r3, r4, r5, width, length = omega
    return (
        f"R1={r1:.0f}Ω R2={r2:.0f}Ω R3={r3 / 1e3:.0f}kΩ R4={r4 / 1e3:.0f}kΩ "
        f"R5={r5 / 1e3:.0f}kΩ W={width:.0f}µm L={length:.0f}µm"
    )


def design_report(design: Union[PrintedNeuralNetwork, PNNParams]) -> DesignReport:
    """Extract the printable design from a trained network or a snapshot."""
    params = snapshot_params(design)
    report = DesignReport(layer_sizes=list(params.layer_sizes))
    for index, layer in enumerate(params.layers):
        theta = layer.theta
        magnitude = np.abs(theta)
        conductance = magnitude * PHYSICAL_SCALE
        with np.errstate(divide="ignore"):
            resistance = np.where(magnitude > 0, 1.0 / conductance, np.inf)
        skipped = ~np.isfinite(resistance)
        benign = skipped & (theta == 0)
        report.layers.append(
            LayerReport(
                index=index,
                crossbar_resistances=resistance,
                negated_inputs=theta < 0,
                activation_omega=np.asarray(layer.act_omega),
                negation_omega=np.asarray(layer.neg_omega),
                skipped_zero=int(benign.sum()),
                skipped_load_bearing=int((skipped & ~benign).sum()),
            )
        )
    return report
