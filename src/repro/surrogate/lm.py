"""A small Levenberg-Marquardt optimizer for nonlinear least squares.

Used to extract the auxiliary parameters η from simulated transfer curves
(Sec. III-A b).  scipy's implementation is available in this environment
and is used as a cross-check in the tests, but the reproduction ships its
own so the fitting step is fully transparent and dependency-light.

:func:`levenberg_marquardt_batch` advances B independent problems in
lockstep with stacked linear algebra; lanes that stall or converge are
retired from the active set.  Every per-lane operation is gather
invariant, so a lane's trajectory does not depend on which other lanes
share the batch — batch-of-1 results match large-batch results bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

#: Starting damping λ of every lane.
LAMBDA_INIT = 1e-3

#: Factor λ shrinks by after an accepted step and grows by after a rejected one.
LAMBDA_FACTOR = 10.0


@dataclass
class LMBatchResult:
    """Outcome of a lockstep Levenberg-Marquardt run over B problems."""

    x: np.ndarray            # (B, k)
    cost: np.ndarray         # (B,)
    iterations: np.ndarray   # (B,)
    converged: np.ndarray    # (B,) bool


def _solve_damped(
    matrices: np.ndarray, rhs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a stack of (k, k) systems, isolating singular lanes.

    Returns ``(steps, ok)``; lanes whose damped normal matrix is singular
    get ``ok=False`` and a zero step (the caller raises their λ and
    retries).  The per-lane re-solve is bitwise identical to the stacked
    solve, so a singular lane never perturbs healthy ones.
    """
    try:
        steps = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        return steps, np.ones(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        ok = np.zeros(len(matrices), dtype=bool)
        for i in range(len(matrices)):
            try:
                steps[i] = np.linalg.solve(matrices[i], rhs[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return steps, ok


def levenberg_marquardt_batch(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_iter: int = 200,
    tol: float = 1e-10,
) -> LMBatchResult:
    """Minimize ``0.5 * ||residual(x_b)||²`` for B problems in lockstep.

    Parameters
    ----------
    residual:
        ``residual(x_subset, lanes)`` maps a ``(P, k)`` parameter stack to
        a ``(P, n)`` residual stack, where ``lanes`` holds the original
        batch indices of the P rows (so the callback can gather per-lane
        targets).
    x0:
        ``(B, k)`` stack of initial guesses.
    jacobian:
        ``jacobian(x_subset, lanes)`` returns the ``(P, n, k)`` stacked
        Jacobian (analytic; there is no finite-difference Jacobian).
    tol:
        Per-lane convergence threshold on both the step norm and the cost
        decrease.

    Each lane takes damped Gauss-Newton steps ``(JᵀJ + λ·diag(JᵀJ)) δ =
    −Jᵀr``, starting from λ = :data:`LAMBDA_INIT`: an accepted step (lower
    cost) divides λ by :data:`LAMBDA_FACTOR`, a rejected one multiplies
    it, for up to 30 tries per iteration.  A lane finishes when a step
    improves the cost by less than ``tol`` with a step norm below ``tol``,
    or when no try improves it; both count as converged, and a lane still
    running at ``max_iter`` does not.  Finished lanes are removed from the
    active set so slow problems do not keep paying for fast ones.
    """
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x0 must be a (B, k) stack of initial guesses")
    n_problems, n_params = x.shape

    all_lanes = np.arange(n_problems)
    res = np.asarray(residual(x, all_lanes), dtype=np.float64)
    if res.ndim != 2 or len(res) != n_problems:
        raise ValueError("residual must return a (B, n) stack")
    cost = 0.5 * np.sum(res * res, axis=-1)
    lam = np.full(n_problems, LAMBDA_INIT)
    iterations = np.zeros(n_problems, dtype=np.int64)
    converged = np.zeros(n_problems, dtype=bool)

    active = all_lanes.copy()
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        xa = x[active]
        resa = res[active]
        costa = cost[active]
        lama = lam[active]
        n_active = active.size

        jac = jacobian(xa, active)                        # (P, n, k)
        jac_t = np.swapaxes(jac, -1, -2)                  # (P, k, n)
        gradient = (jac_t @ resa[..., None])[..., 0]      # (P, k)
        hessian = jac_t @ jac                             # (P, k, k)
        diag = np.maximum(
            np.diagonal(hessian, axis1=-2, axis2=-1), 1e-12
        )                                                 # (P, k)
        damping_matrix = np.zeros_like(hessian)
        rows = np.arange(n_params)
        damping_matrix[:, rows, rows] = diag

        improved = np.zeros(n_active, dtype=bool)
        conv_now = np.zeros(n_active, dtype=bool)
        pending = np.ones(n_active, dtype=bool)
        for _ in range(30):
            pidx = np.nonzero(pending)[0]
            if pidx.size == 0:
                break
            damped = hessian[pidx] + lama[pidx][:, None, None] * damping_matrix[pidx]
            step, ok = _solve_damped(damped, -gradient[pidx])
            lama[pidx[~ok]] *= LAMBDA_FACTOR
            sidx = pidx[ok]
            if sidx.size == 0:
                continue
            candidate = xa[sidx] + step[ok]
            candidate_res = np.asarray(
                residual(candidate, active[sidx]), dtype=np.float64
            )
            candidate_cost = 0.5 * np.sum(candidate_res * candidate_res, axis=-1)
            accept = candidate_cost < costa[sidx]
            aidx = sidx[accept]
            if aidx.size:
                improvement = costa[aidx] - candidate_cost[accept]
                step_norm = np.sqrt(
                    np.sum(step[ok][accept] * step[ok][accept], axis=-1)
                )
                xa[aidx] = candidate[accept]
                resa[aidx] = candidate_res[accept]
                costa[aidx] = candidate_cost[accept]
                lama[aidx] = np.maximum(lama[aidx] / LAMBDA_FACTOR, 1e-12)
                conv_now[aidx] = (improvement < tol) & (step_norm < tol)
                improved[aidx] = True
                pending[aidx] = False
            ridx = sidx[~accept]
            lama[ridx] *= LAMBDA_FACTOR

        iterations[active] = it
        x[active] = xa
        res[active] = resa
        cost[active] = costa
        lam[active] = lama

        finished = (~improved) | conv_now
        converged[active[finished]] = (conv_now | ~improved)[finished]
        active = active[~finished]

    return LMBatchResult(x=x, cost=cost, iterations=iterations, converged=converged)
