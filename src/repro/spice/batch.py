"""Vectorized Newton-Raphson: B independent DC operating points per solve.

``solve_dc_batch`` is the DC solver of :mod:`repro.spice`: every sweep,
surrogate dataset, deploy verification and static-power estimate runs it.
It stacks ``B`` operating points of one compiled
:class:`~repro.spice.plan.StampPlan` into a ``(B, n, n)`` modified-nodal-
analysis system and runs all Newton iterations as array operations: one
vectorized EGT companion-model evaluation

    Id ≈ Id* + gm (Vgs − Vgs*) + gds (Vds − Vds*)

per iteration, one stacked ``np.linalg.solve``, and per-lane convergence
masks that remove converged lanes from the active set (so slow lanes
never make fast lanes pay).  A ``GMIN`` conductance from every node to
ground keeps the system well conditioned, and a per-iteration voltage
step limit (``DAMPING``) keeps the iteration inside the model's smooth
region.

Stamps accumulate device by device in netlist insertion order, and every
batched operation is gather invariant, so a lane's solution does not
depend on its batch mates.  Lanes must reproduce the recorded one-point
solutions in ``tests/spice/golden/scalar_solver_reference.json`` bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from repro import telemetry
from repro.spice.egt import id_gm_gds
from repro.spice.netlist import GROUND
from repro.spice.plan import ParamBatch, StampPlan

#: Conductance from every node to ground (S).
GMIN = 1e-12

#: Convergence threshold on a lane's max node-voltage update (V).
TOL = 1e-10

#: Largest per-iteration node-voltage step (V).
DAMPING = 0.5


class ConvergenceError(RuntimeError):
    """Raised when a design's Newton-Raphson iteration does not converge."""


@dataclass
class BatchOperatingPoint:
    """DC solutions of ``B`` lanes sharing one stamp plan.

    ``converged`` marks lanes whose Newton iteration finished within
    ``max_iter`` with a solvable system; where it is ``False`` the
    ``voltages`` and ``source_currents`` rows are NaN.
    """

    plan: StampPlan
    voltages: np.ndarray          # (B, n_nodes)
    source_currents: np.ndarray   # (B, n_sources)
    iterations: np.ndarray        # (B,) int
    converged: np.ndarray         # (B,) bool

    def __len__(self) -> int:
        return len(self.voltages)

    def voltage(self, node: str) -> np.ndarray:
        """Per-lane voltage of ``node`` (zeros for ground)."""
        if node == GROUND:
            return np.zeros(len(self), dtype=np.float64)
        return self.voltages[:, self.plan.node_index(node)]


def _infer_batch_size(
    plan: StampPlan,
    params: Optional[ParamBatch],
    vin_batch: Optional[Mapping[str, Union[float, np.ndarray]]],
    initial: Optional[np.ndarray],
    batch_size: Optional[int],
) -> int:
    candidates = []
    if batch_size is not None:
        candidates.append(int(batch_size))
    if params is not None and params.batch_size is not None:
        candidates.append(params.batch_size)
    if vin_batch:
        for value in vin_batch.values():
            array = np.asarray(value, dtype=np.float64)
            if array.ndim == 1:
                candidates.append(int(array.shape[0]))
    if initial is not None:
        candidates.append(int(np.asarray(initial).shape[0]))
    if not candidates:
        raise ValueError(
            "cannot infer the batch size: pass param_batch, vin_batch, "
            "initial, or an explicit batch_size"
        )
    if len(set(candidates)) > 1:
        raise ValueError(f"inconsistent batch sizes: {sorted(set(candidates))}")
    return candidates[0]


def _assemble_base(
    plan: StampPlan,
    batch: int,
    conductances: np.ndarray,
    source_voltages: np.ndarray,
):
    """Constant (linear) stamps for every lane, in netlist device order."""
    n_nodes, size = plan.n_nodes, plan.size
    base_matrix = np.zeros((batch, size, size))
    base_rhs = np.zeros((batch, size))

    diag = np.arange(n_nodes)
    base_matrix[:, diag, diag] += GMIN

    for j in range(plan.n_resistors):
        g = conductances[:, j]
        a, b = int(plan.res_a[j]), int(plan.res_b[j])
        if a >= 0:
            base_matrix[:, a, a] += g
        if b >= 0:
            base_matrix[:, b, b] += g
        if a >= 0 and b >= 0:
            base_matrix[:, a, b] -= g
            base_matrix[:, b, a] -= g

    for k in range(plan.n_sources):
        row = n_nodes + k
        p, m = int(plan.src_p[k]), int(plan.src_m[k])
        if p >= 0:
            base_matrix[:, p, row] += 1.0
            base_matrix[:, row, p] += 1.0
        if m >= 0:
            base_matrix[:, m, row] -= 1.0
            base_matrix[:, row, m] -= 1.0
        base_rhs[:, row] = source_voltages[:, k]
    return base_matrix, base_rhs


def _solve_lanes(matrix: np.ndarray, rhs: np.ndarray):
    """Stacked linear solve with per-lane singularity isolation.

    Returns ``(solution, ok)``; singular lanes get NaN rows instead of
    poisoning the whole stack with ``LinAlgError``.
    """
    try:
        return np.linalg.solve(matrix, rhs[..., None])[..., 0], np.ones(
            len(matrix), dtype=bool
        )
    except np.linalg.LinAlgError:
        solution = np.full_like(rhs, np.nan)
        ok = np.zeros(len(matrix), dtype=bool)
        for lane in range(len(matrix)):
            try:
                solution[lane] = np.linalg.solve(matrix[lane], rhs[lane])
                ok[lane] = True
            except np.linalg.LinAlgError:
                pass
        return solution, ok


def solve_dc_batch(
    plan: StampPlan,
    param_batch: Optional[ParamBatch] = None,
    vin_batch: Optional[Mapping[str, Union[float, np.ndarray]]] = None,
    initial: Optional[np.ndarray] = None,
    max_iter: int = 200,
    batch_size: Optional[int] = None,
) -> BatchOperatingPoint:
    """Solve ``B`` DC operating points of ``plan`` in lockstep.

    Parameters
    ----------
    param_batch:
        Per-lane element values (``None`` fields use the plan's template).
    vin_batch:
        Per-lane voltage-source overrides, ``{source_name: (B,) or float}``.
    initial:
        Optional ``(B, n_nodes)`` warm-start voltages (used by sweeps);
        every node starts at 0.5 V without it.
    max_iter:
        Newton iteration limit; a lane still moving by ``TOL`` or more
        after it is reported ``converged=False``.
    batch_size:
        ``B`` when no other argument carries it.
    """
    batch = _infer_batch_size(plan, param_batch, vin_batch, initial, batch_size)
    n_nodes, n_sources = plan.n_nodes, plan.n_sources
    n_egt = plan.n_egts

    # Telemetry accumulators (pure observers: never touch the numerics).
    tel = telemetry.get()
    trace = tel.enabled
    active_trajectory: list = []
    total_lane_iters = 0
    n_damped_steps = 0
    n_singular = 0

    # --- per-lane element values --------------------------------------- #
    if param_batch is not None and param_batch.resistances is not None:
        resistances = param_batch.resistances
        if resistances.shape != (batch, plan.n_resistors):
            raise ValueError(
                f"resistances must have shape {(batch, plan.n_resistors)}, "
                f"got {resistances.shape}"
            )
        if np.any(resistances <= 0):
            raise ValueError("resistances must be positive")
    else:
        resistances = np.broadcast_to(plan.res_resistance, (batch, plan.n_resistors))
    conductances = 1.0 / resistances

    widths = plan.egt_width
    lengths = plan.egt_length
    if param_batch is not None and param_batch.widths is not None:
        widths = param_batch.widths
        if widths.shape != (batch, n_egt):
            raise ValueError(f"widths must have shape {(batch, n_egt)}")
    if param_batch is not None and param_batch.lengths is not None:
        lengths = param_batch.lengths
        if lengths.shape != (batch, n_egt):
            raise ValueError(f"lengths must have shape {(batch, n_egt)}")
    if n_egt and (np.any(widths <= 0) or np.any(lengths <= 0)):
        raise ValueError("transistor dimensions must be positive")
    # beta = k' * W / L per device.
    betas = np.broadcast_to(
        plan.egt_k_prime * widths / lengths, (batch, n_egt)
    ) if n_egt else np.zeros((batch, 0))

    source_voltages = np.broadcast_to(plan.src_voltage, (batch, n_sources)).copy()
    if vin_batch:
        for name, value in vin_batch.items():
            source_voltages[:, plan.source_index(name)] = np.asarray(
                value, dtype=np.float64
            )

    base_matrix, base_rhs = _assemble_base(plan, batch, conductances, source_voltages)

    if initial is not None:
        voltages = np.array(initial, dtype=np.float64, copy=True)
        if voltages.shape != (batch, n_nodes):
            raise ValueError(f"initial must have shape {(batch, n_nodes)}")
    else:
        voltages = np.full((batch, n_nodes), 0.5)

    # EGT terminal gather indices into a ground-padded voltage array.
    d_pad = np.where(plan.egt_d >= 0, plan.egt_d, n_nodes)
    g_pad = np.where(plan.egt_g >= 0, plan.egt_g, n_nodes)
    s_pad = np.where(plan.egt_s >= 0, plan.egt_s, n_nodes)

    # --- outputs -------------------------------------------------------- #
    out_voltages = np.full((batch, n_nodes), np.nan)
    out_currents = np.full((batch, n_sources), np.nan)
    out_iterations = np.full(batch, max_iter, dtype=np.int64)
    out_converged = np.zeros(batch, dtype=bool)

    # --- Newton iteration over the shrinking active set ----------------- #
    active = np.arange(batch)
    act_base, act_rhs, act_v = base_matrix, base_rhs, voltages
    act_betas = betas
    if n_nodes == 0:
        # Degenerate source-only systems converge in a single linear solve.
        solution, ok = _solve_lanes(act_base, act_rhs)
        out_currents[:] = solution[:, n_nodes:]
        out_iterations[:] = 1
        out_converged[:] = ok
        active = active[:0]

    for iteration in range(1, max_iter + 1):
        if not len(active):
            break
        if trace:
            active_trajectory.append(int(len(active)))
            total_lane_iters += int(len(active))
        matrix = act_base.copy()
        rhs = act_rhs.copy()

        if n_egt:
            padded = np.concatenate(
                [act_v, np.zeros((len(active), 1))], axis=1
            )
            vgs = padded[:, g_pad] - padded[:, s_pad]
            vds = padded[:, d_pad] - padded[:, s_pad]
            current, gm, gds = id_gm_gds(
                vgs,
                vds,
                act_betas,
                plan.egt_v_threshold,
                plan.egt_phi,
                plan.egt_channel_lambda,
            )
            # Companion model: I = Ieq + gm*Vgs + gds*Vds flowing drain→source.
            ieq = current - gm * vgs - gds * vds
            gm_plus_gds = gm + gds
            for k in range(n_egt):
                d = int(plan.egt_d[k])
                g_node = int(plan.egt_g[k])
                s = int(plan.egt_s[k])
                for row, polarity in ((d, 1.0), (s, -1.0)):
                    if row < 0:
                        continue
                    rhs[:, row] -= polarity * ieq[:, k]
                    if g_node >= 0:
                        matrix[:, row, g_node] += polarity * gm[:, k]
                    if s >= 0:
                        matrix[:, row, s] -= polarity * gm_plus_gds[:, k]
                    if d >= 0:
                        matrix[:, row, d] += polarity * gds[:, k]

        solution, solvable = _solve_lanes(matrix, rhs)
        if not solvable.all():
            # A singular lane cannot take a Newton step; it fails here.
            if trace:
                n_singular += int(np.sum(~solvable))
            failed = active[~solvable]
            out_iterations[failed] = iteration
            keep = solvable
            active = active[keep]
            act_base, act_rhs, act_v = act_base[keep], act_rhs[keep], act_v[keep]
            act_betas = act_betas[keep]
            solution = solution[keep]
            if not len(active):
                break

        new_voltages = solution[:, :n_nodes]
        delta = new_voltages - act_v
        step = np.clip(delta, -DAMPING, DAMPING)
        if trace:
            # Lanes whose Newton step got clipped by the damping limit.
            n_damped_steps += int(
                np.sum(np.any(np.abs(delta) > DAMPING, axis=1))
            )
        act_v = act_v + step
        done = np.max(np.abs(delta), axis=1) < TOL

        if done.any():
            lanes = active[done]
            out_voltages[lanes] = act_v[done]
            out_currents[lanes] = solution[done, n_nodes:]
            out_iterations[lanes] = iteration
            out_converged[lanes] = True
            keep = ~done
            active = active[keep]
            act_base, act_rhs, act_v = act_base[keep], act_rhs[keep], act_v[keep]
            act_betas = act_betas[keep]

    if trace:
        tel.event(
            "spice.solve_dc_batch",
            batch=int(batch),
            n_unconverged=int(batch - np.sum(out_converged)),
            n_iterations=len(active_trajectory),
            total_lane_iters=total_lane_iters,
            active_trajectory=active_trajectory,
            n_damped_steps=n_damped_steps,
            n_singular=n_singular,
        )

    return BatchOperatingPoint(
        plan=plan,
        voltages=out_voltages,
        source_currents=out_currents,
        iterations=out_iterations,
        converged=out_converged,
    )
