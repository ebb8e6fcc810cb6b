"""Printed neuromorphic circuit primitives (Fig. 1 of the paper).

- :mod:`~repro.circuits.crossbar`: the resistor crossbar implementing the
  weighted sum of Eq. 1, both as an analytic model and as a netlist whose
  solved output cross-checks the analytic expression — the tests' physics
  reference for the pNN's crossbar kernel.
- :mod:`~repro.circuits.ptanh`: the two-stage inverter circuit whose
  transfer curve is tanh-like (Eq. 2), parameterized by
  ω = [R1, R2, R3, R4, R5, W, L].
- :mod:`~repro.circuits.negweight`: the negative-weight circuit (Eq. 3).
"""

from repro.circuits.crossbar import CrossbarColumn, crossbar_netlist, crossbar_output
from repro.circuits.ptanh import (
    PTANH_NODES,
    build_ptanh_netlist,
    ptanh_param_batch,
    ptanh_stamp_plan,
    simulate_ptanh_curve,
    simulate_ptanh_curve_batch,
)
from repro.circuits.negweight import (
    simulate_negweight_curve,
    simulate_negweight_curve_batch,
)

__all__ = [
    "CrossbarColumn",
    "crossbar_netlist",
    "crossbar_output",
    "PTANH_NODES",
    "build_ptanh_netlist",
    "ptanh_stamp_plan",
    "ptanh_param_batch",
    "simulate_ptanh_curve",
    "simulate_ptanh_curve_batch",
    "simulate_negweight_curve",
    "simulate_negweight_curve_batch",
]
