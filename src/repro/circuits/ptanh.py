"""The printed tanh-like (ptanh) circuit: two cascaded inverter stages.

The paper's Fig. 1 (right) shows an inverter-based nonlinear circuit with
five resistors R1..R5 and electrolyte-gated transistors whose geometry
(W, L) is a design parameter; cascading two inverters yields the tanh-like
transfer of Eq. 2.  The exact pPDK topology is proprietary, so the netlist
built here is a faithful synthetic equivalent with the same parameter
roles:

- ``R1``/``R2`` form the input voltage divider driving the first gate (the
  inequality R1 > R2 from Table I keeps its ratio below one half);
- stage 1 is an EGT (W, L) with load resistor ``R5`` from VDD;
- ``R3``/``R4`` form the inter-stage divider driving the second gate (this
  divider visibly loads stage 1, which is exactly the "surrounding circuit
  elements" interaction the paper mentions);
- stage 2 is an identical EGT with a fixed load, restoring the signal
  polarity so the overall transfer rises with the input.

Sweeping the input source through 0..VDD produces the characteristic curves
of Fig. 2 (left).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.spice.batch import ConvergenceError
from repro.spice.egt import EGTModel
from repro.spice.netlist import GROUND, Netlist
from repro.spice.plan import ParamBatch, StampPlan, compile_netlist
from repro.spice.sweep import dc_sweep_batch

#: Supply voltage of the printed circuits (the paper works on a 1 V rail).
VDD = 1.0

#: Load resistance of the restoring second stage (fixed, not part of ω).
SECOND_STAGE_LOAD = 100e3

#: Node names used by the builder, for tests and documentation.
PTANH_NODES = {
    "input": "vin",
    "gate1": "g1",
    "drain1": "d1",
    "gate2": "g2",
    "output": "out",
}


def build_ptanh_netlist(
    omega: np.ndarray,
    vin: float = 0.0,
    model: Optional[EGTModel] = None,
) -> Netlist:
    """Build the two-stage nonlinear circuit for one design point ω.

    Parameters
    ----------
    omega:
        Physical parameters ``[R1, R2, R3, R4, R5, W, L]`` in SI units
        (ohms and micrometres, matching Table I).
    vin:
        Initial input-source voltage (swept afterwards).
    model:
        EGT compact model; defaults to the synthetic pPDK.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (7,):
        raise ValueError("omega must be [R1, R2, R3, R4, R5, W, L]")
    r1, r2, r3, r4, r5, width, length = (float(v) for v in omega)
    if min(r1, r2, r3, r4, r5) <= 0:
        raise ValueError("resistances must be positive")
    model = model or EGTModel()

    netlist = Netlist("ptanh")
    netlist.add_voltage_source("Vdd", "vdd", GROUND, VDD)
    netlist.add_voltage_source("Vin", PTANH_NODES["input"], GROUND, vin)

    # Input divider R1/R2.
    netlist.add_resistor("R1", PTANH_NODES["input"], PTANH_NODES["gate1"], r1)
    netlist.add_resistor("R2", PTANH_NODES["gate1"], GROUND, r2)

    # Stage 1: EGT with load R5.
    netlist.add_resistor("R5", "vdd", PTANH_NODES["drain1"], r5)
    netlist.add_egt(
        "T1", PTANH_NODES["drain1"], PTANH_NODES["gate1"], GROUND, width, length, model
    )

    # Inter-stage divider R3/R4 (loads stage 1).
    netlist.add_resistor("R3", PTANH_NODES["drain1"], PTANH_NODES["gate2"], r3)
    netlist.add_resistor("R4", PTANH_NODES["gate2"], GROUND, r4)

    # Stage 2: restoring inverter with a fixed load.
    netlist.add_resistor("RL2", "vdd", PTANH_NODES["output"], SECOND_STAGE_LOAD)
    netlist.add_egt(
        "T2", PTANH_NODES["output"], PTANH_NODES["gate2"], GROUND, width, length, model
    )
    return netlist


# --------------------------------------------------------------------- #
# transfer-curve sweeps                                                 #
# --------------------------------------------------------------------- #

#: A representative mid-space design used only to compile the topology.
_TEMPLATE_OMEGA = np.array([200.0, 80.0, 100e3, 40e3, 100e3, 500.0, 30.0])

_PLAN_CACHE: Dict[EGTModel, StampPlan] = {}


def ptanh_stamp_plan(model: Optional[EGTModel] = None) -> StampPlan:
    """The compiled stamp plan shared by every ptanh design point.

    All Table-I designs share one topology, so the netlist is lowered once
    per EGT model and reused by every batched sweep.
    """
    model = model or EGTModel()
    plan = _PLAN_CACHE.get(model)
    if plan is None:
        plan = compile_netlist(build_ptanh_netlist(_TEMPLATE_OMEGA, model=model))
        _PLAN_CACHE[model] = plan
    return plan


def ptanh_param_batch(omega_batch: np.ndarray, plan: StampPlan) -> ParamBatch:
    """Per-lane element values for a ``(B, 7)`` stack of design points."""
    omega_batch = np.asarray(omega_batch, dtype=np.float64)
    if omega_batch.ndim != 2 or omega_batch.shape[1] != 7:
        raise ValueError("omega_batch must be a (B, 7) array of design points")
    if np.any(omega_batch[:, :5] <= 0):
        raise ValueError("resistances must be positive")
    batch = len(omega_batch)
    by_name = {
        "R1": omega_batch[:, 0],
        "R2": omega_batch[:, 1],
        "R3": omega_batch[:, 2],
        "R4": omega_batch[:, 3],
        "R5": omega_batch[:, 4],
        "RL2": np.full(batch, SECOND_STAGE_LOAD),
    }
    resistances = np.stack([by_name[name] for name in plan.resistor_names], axis=1)
    widths = np.repeat(omega_batch[:, 5:6], plan.n_egts, axis=1)
    lengths = np.repeat(omega_batch[:, 6:7], plan.n_egts, axis=1)
    return ParamBatch(resistances=resistances, widths=widths, lengths=lengths)


def simulate_ptanh_curve_batch(
    omega_batch: np.ndarray,
    n_points: int = 41,
    model: Optional[EGTModel] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep many ptanh designs per DC solve (Fig. 3 hot path).

    This is the reproduction's stand-in for a Cadence DC sweep: each output
    rises tanh-like from near 0 V to near VDD as the input sweeps 0..VDD.
    Returns ``(V_in, V_out, ok)``: the shared ``(n_points,)`` input axis,
    the ``(B, n_points)`` output curves, and the ``(B,)`` success mask
    (``False`` where a lane's Newton iteration failed; its curve is NaN
    from that sweep step on).  A lane's curve does not depend on its batch
    mates.
    """
    plan = ptanh_stamp_plan(model)
    params = ptanh_param_batch(omega_batch, plan)
    values = np.linspace(0.0, VDD, n_points)
    return dc_sweep_batch(
        plan, params, "Vin", values, output_node=PTANH_NODES["output"]
    )


def simulate_ptanh_curve(
    omega: np.ndarray,
    n_points: int = 41,
    model: Optional[EGTModel] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sweep one ptanh design; return ``(V_in, V_out)`` arrays.

    A batch of one through :func:`simulate_ptanh_curve_batch`.
    """
    return sweep_one_design(simulate_ptanh_curve_batch, omega, n_points, model)


def sweep_one_design(
    curve_batch: Callable[..., Tuple[np.ndarray, np.ndarray, np.ndarray]],
    omega: np.ndarray,
    n_points: int,
    model: Optional[EGTModel],
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a batched curve sweep on the single design ``omega``.

    Returns ``(V_in, curve)``; raises
    :class:`~repro.spice.batch.ConvergenceError` when the lane fails.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (7,):
        raise ValueError("omega must be [R1, R2, R3, R4, R5, W, L]")
    xs, curves, ok = curve_batch(omega[None, :], n_points=n_points, model=model)
    if not ok[0]:
        raise ConvergenceError(f"DC sweep did not converge for omega={omega}")
    return xs, curves[0]
