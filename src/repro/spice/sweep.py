"""Batched DC sweeps: many circuits through one source sweep, warm-started."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.spice.netlist import GROUND
from repro.spice.batch import solve_dc_batch
from repro.spice.plan import ParamBatch, StampPlan


def dc_sweep_batch(
    plan: StampPlan,
    param_batch: Optional[ParamBatch],
    source_name: str,
    values: Iterable[float],
    output_node: Optional[str] = None,
    batch_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep one voltage source across ``B`` lanes simultaneously.

    All lanes advance through the sweep in lockstep; each sweep column is
    warm-started from the previous column's solutions, which makes the
    sweep both faster and more robust near high-gain transitions.  Lanes
    whose Newton iteration fails at some column (``converged=False`` in
    :func:`~repro.spice.batch.solve_dc_batch`) are dropped from the
    remaining columns and reported in the returned mask.

    Returns
    -------
    ``(values, outputs, ok)`` where ``values`` is the ``(n_steps,)`` sweep
    axis, ``outputs`` is ``(B, n_steps)`` voltages of ``output_node`` (or
    ``(B, n_steps, n_nodes)`` node voltages when ``output_node`` is None)
    with NaN from the first failed column on, and ``ok`` is the ``(B,)``
    per-lane success mask.
    """
    values = np.asarray([float(v) for v in values], dtype=np.float64)
    if param_batch is not None and param_batch.batch_size is not None:
        batch = param_batch.batch_size
    elif batch_size is not None:
        batch = int(batch_size)
    else:
        raise ValueError("pass a ParamBatch or an explicit batch_size")

    n_nodes = plan.n_nodes
    volts = np.full((batch, len(values), n_nodes), np.nan)
    ok = np.ones(batch, dtype=bool)

    active = np.arange(batch)
    params = param_batch
    warm: Optional[np.ndarray] = None
    for j, value in enumerate(values):
        if not len(active):
            break
        solution = solve_dc_batch(
            plan,
            params,
            vin_batch={source_name: value},
            initial=warm,
            batch_size=len(active),
        )
        good = solution.converged
        if not good.all():
            ok[active[~good]] = False
            active = active[good]
            if params is not None:
                params = params.take(good)
            if not len(active):
                break
        warm = solution.voltages[good]
        volts[active, j] = warm

    if output_node is None:
        return values, volts, ok
    if output_node == GROUND:
        outputs = np.zeros((batch, len(values)))
    else:
        outputs = volts[:, :, plan.node_index(output_node)]
    return values, outputs, ok
