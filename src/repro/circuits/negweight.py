"""The printed negative-weight circuit (Eq. 3).

The paper uses "the same circuit as the ptanh circuit" for negative
weights: a single inverting stage whose falling transfer curve, referenced
to the supply rail, realizes the mathematical negation

    inv(V) = −(η1 + η2 · tanh((V − η3) · η4)).

In the pNN abstraction (as in the original printed-NN work) the
negative-weight transform produces *negative* values; physically the
circuit output lies in 0..VDD and the sign is absorbed by the crossbar
reformulation.  We therefore simulate the first inverter stage of the
shared netlist and report ``V_stage − VDD``, a falling curve in
(−VDD, 0) exactly as plotted in Fig. 2 (right).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.circuits.ptanh import (
    PTANH_NODES,
    VDD,
    ptanh_param_batch,
    ptanh_stamp_plan,
    sweep_one_design,
)
from repro.spice.egt import EGTModel
from repro.spice.sweep import dc_sweep_batch


def simulate_negweight_curve_batch(
    omega_batch: np.ndarray,
    n_points: int = 41,
    model: Optional[EGTModel] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep many negative-weight designs per DC solve.

    Uses the same physical netlist as the ptanh circuit (the paper's
    shortcut) with the output taken after the first, inverting stage and
    referenced to the supply rail, so the curves are negative and fall
    with the input.  Returns ``(V_in, inv(V_in), ok)`` with
    ``(B, n_points)`` curves and a ``(B,)`` success mask, as
    :func:`~repro.circuits.ptanh.simulate_ptanh_curve_batch` does.
    """
    plan = ptanh_stamp_plan(model)
    params = ptanh_param_batch(omega_batch, plan)
    values = np.linspace(0.0, VDD, n_points)
    xs, stage1, ok = dc_sweep_batch(
        plan, params, "Vin", values, output_node=PTANH_NODES["gate2"]
    )
    # Reference to the rail: the divider-tapped inverter output, shifted so
    # the curve expresses subtraction in the crossbar reformulation.
    return xs, stage1 - VDD, ok


def simulate_negweight_curve(
    omega: np.ndarray,
    n_points: int = 41,
    model: Optional[EGTModel] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sweep one negative-weight design; return ``(V_in, inv(V_in))``.

    A batch of one through :func:`simulate_negweight_curve_batch`.
    """
    return sweep_one_design(simulate_negweight_curve_batch, omega, n_points, model)
