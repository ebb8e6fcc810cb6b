"""A nonlinear DC circuit solver standing in for Cadence Virtuoso + pPDK.

The paper generates its surrogate-model dataset with SPICE simulations of
printed inverter circuits.  Neither the commercial simulator nor the printed
process design kit is available here, so this package implements the
required subset from scratch:

- :mod:`~repro.spice.netlist` — circuit description (named nodes, devices).
- :mod:`~repro.spice.components` — resistors, voltage sources, EGTs.
- :mod:`~repro.spice.egt` — a smooth compact model for printed
  electrolyte-gated transistors (synthetic pPDK, calibrated so that the
  two-inverter circuit of the paper produces tanh-like transfer curves).
- :mod:`~repro.spice.plan` — compiled stamp plans: a netlist lowered once
  into index arrays so hot loops never touch strings or dicts.
- :mod:`~repro.spice.batch` — the DC solver: modified nodal analysis with
  Newton-Raphson iteration for the nonlinear devices, vectorized over
  ``(B, n, n)`` stacked systems (one netlist is a batch of one).
- :mod:`~repro.spice.sweep` — warm-started DC sweeps of ``B`` lanes at
  once; every transfer curve in the reproduction comes from here.
- :mod:`~repro.spice.validate` — connectivity checks (networkx based).
"""

from repro.spice.netlist import Netlist
from repro.spice.components import Resistor, VoltageSource, EGT
from repro.spice.egt import EGTModel, id_gm_gds
from repro.spice.plan import ParamBatch, StampPlan, compile_netlist
from repro.spice.batch import BatchOperatingPoint, ConvergenceError, solve_dc_batch
from repro.spice.sweep import dc_sweep_batch
from repro.spice.validate import validate_netlist, NetlistError

__all__ = [
    "Netlist",
    "Resistor",
    "VoltageSource",
    "EGT",
    "EGTModel",
    "id_gm_gds",
    "ConvergenceError",
    "StampPlan",
    "ParamBatch",
    "compile_netlist",
    "BatchOperatingPoint",
    "solve_dc_batch",
    "dc_sweep_batch",
    "validate_netlist",
    "NetlistError",
]
