"""Extraction of the auxiliary parameters η from simulated transfer curves.

Given a simulated sweep ``(V_in, V_out)`` of a nonlinear circuit, fit the
modified tanh of Eq. 2

    ptanh_η(V) = η1 + η2 · tanh((V − η3) · η4)

(or its negated form, Eq. 3) by nonlinear least squares.  The initial guess
is derived from the curve geometry (midpoint, swing, steepest slope), which
makes the fit robust across the whole design space including nearly-flat
curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.surrogate.lm import levenberg_marquardt_batch


def ptanh_curve(eta: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """Evaluate Eq. 2 for parameters ``eta = [η1, η2, η3, η4]``."""
    eta = np.asarray(eta, dtype=np.float64)
    return eta[0] + eta[1] * np.tanh((np.asarray(v_in) - eta[2]) * eta[3])


def ptanh_curve_batch(eta: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """Evaluate Eq. 2 for a ``(B, 4)`` stack of η over a shared sweep."""
    eta = np.asarray(eta, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    return eta[:, 0:1] + eta[:, 1:2] * np.tanh(
        (v_in[None, :] - eta[:, 2:3]) * eta[:, 3:4]
    )


def ptanh_jacobian_batch(eta: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """Stacked ``(B, n, 4)`` Jacobian of :func:`ptanh_curve_batch`."""
    eta = np.asarray(eta, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    arg = (v_in[None, :] - eta[:, 2:3]) * eta[:, 3:4]
    t = np.tanh(arg)
    sech2 = 1.0 - t * t
    jac = np.empty((len(eta), v_in.size, 4))
    jac[:, :, 0] = 1.0
    jac[:, :, 1] = t
    jac[:, :, 2] = -eta[:, 1:2] * eta[:, 3:4] * sech2
    jac[:, :, 3] = eta[:, 1:2] * (v_in[None, :] - eta[:, 2:3]) * sech2
    return jac


#: Physically-plausible box for fitted η on a 1 V rail.  Fits escaping this
#: box are line-like degeneracies (huge amplitude compensated by a tiny
#: steepness) whose parameters are not identifiable.
ETA_BOUNDS_LOW = np.array([-0.5, -1.2, -0.5, 0.2])
ETA_BOUNDS_HIGH = np.array([1.5, 1.2, 1.5, 300.0])


@dataclass
class FitResult:
    """Fitted η with quality diagnostics."""

    eta: np.ndarray
    rmse: float
    swing: float
    converged: bool

    @property
    def in_bounds(self) -> bool:
        """Whether η lies in the physically identifiable box."""
        return bool(
            np.all(self.eta >= ETA_BOUNDS_LOW) and np.all(self.eta <= ETA_BOUNDS_HIGH)
        )


def initial_guess_batch(v_in: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Geometry-based initial η for a ``(B, n)`` stack of tanh-like curves.

    Per row: η1 is the midpoint of the output range and η2 its half-swing,
    signed by whether the curve rises; η3 is the input of the steepest
    finite-difference slope, and η4 that slope over |η2| (tanh'(0) = 1),
    clipped to [0.5, 200].  A degenerate flat row (swing below 1 mV) has no
    identifiable centre or steepness and gets the neutral
    ``[η1, 0, 0.5, 1]`` so its fit stays well conditioned.
    """
    v_in = np.asarray(v_in, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    lo = targets.min(axis=1)
    hi = targets.max(axis=1)
    eta1 = 0.5 * (lo + hi)
    rising = targets[:, -1] >= targets[:, 0]
    half = 0.5 * (hi - lo)
    eta2 = np.where(rising, half, -half)
    slopes = np.gradient(targets, v_in, axis=1)
    steepest = np.argmax(np.abs(slopes), axis=1)
    rows = np.arange(len(targets))
    eta3 = v_in[steepest]
    eta4 = np.clip(
        np.abs(slopes[rows, steepest]) / (np.abs(eta2) + 1e-9), 0.5, 200.0
    )
    guess = np.stack([eta1, eta2, eta3, eta4], axis=1)
    flat = (hi - lo) < 1e-3
    guess[flat, 1] = 0.0
    guess[flat, 2] = 0.5
    guess[flat, 3] = 1.0
    return guess


def fit_ptanh(
    v_in: np.ndarray,
    v_out: np.ndarray,
    negated: bool = False,
    max_iter: int = 200,
) -> FitResult:
    """Fit Eq. 2 (or Eq. 3 when ``negated``) to a simulated sweep.

    For the negated form the sign is folded into the target
    (``-V_out = ptanh_η(V_in)``), so the same solver handles both circuit
    types and ``inv(V) = −ptanh_η(V)`` holds for the returned η.

    Delegates to :func:`fit_ptanh_batch` with a batch of one; since every
    batch operation is batch-size invariant, fitting curves one at a time
    or by the thousand produces bit-identical η.
    """
    v_in = np.asarray(v_in, dtype=np.float64)
    v_out = np.asarray(v_out, dtype=np.float64)
    if v_in.shape != v_out.shape or v_in.ndim != 1:
        raise ValueError("v_in and v_out must be 1-D arrays of equal length")
    return fit_ptanh_batch(
        v_in, v_out[None, :], negated=negated, max_iter=max_iter
    )[0]


def fit_ptanh_batch(
    v_in: np.ndarray,
    v_out: np.ndarray,
    negated: bool = False,
    max_iter: int = 200,
) -> List[FitResult]:
    """Fit Eq. 2 / Eq. 3 to a ``(B, n)`` stack of sweeps in lockstep.

    All curves share the ``(n,)`` input axis ``v_in`` (the builder sweeps
    every design over the same grid).  Returns one :class:`FitResult` per
    row; each equals what :func:`fit_ptanh` returns for that row alone.
    """
    v_in = np.asarray(v_in, dtype=np.float64)
    v_out = np.asarray(v_out, dtype=np.float64)
    if v_in.ndim != 1 or v_out.ndim != 2 or v_out.shape[1] != v_in.size:
        raise ValueError("v_out must be a (B, n) stack over the v_in grid")
    if v_in.size < 5:
        raise ValueError("need at least 5 sweep points for a 4-parameter fit")
    targets = -v_out if negated else v_out

    x0 = initial_guess_batch(v_in, targets)

    def residual(eta: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return ptanh_curve_batch(eta, v_in) - targets[lanes]

    def jacobian(eta: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return ptanh_jacobian_batch(eta, v_in)

    result = levenberg_marquardt_batch(
        residual, x0, jacobian=jacobian, max_iter=max_iter
    )
    swings = targets.max(axis=1) - targets.min(axis=1)
    fits = []
    for b in range(len(targets)):
        eta = canonicalize_eta(result.x[b])
        res = ptanh_curve(eta, v_in) - targets[b]
        rmse = float(np.sqrt(np.mean(res * res)))
        fits.append(
            FitResult(
                eta=eta,
                rmse=rmse,
                swing=float(swings[b]),
                converged=bool(result.converged[b]),
            )
        )
    return fits


def canonicalize_eta(eta: np.ndarray) -> np.ndarray:
    """Resolve the (η2, η4) sign ambiguity: always report η4 > 0.

    ``η2 tanh((V−η3) η4)`` is invariant under flipping the signs of both η2
    and η4; a canonical orientation keeps the regression targets
    single-valued.
    """
    eta = np.asarray(eta, dtype=np.float64).copy()
    if eta[3] < 0:
        eta[1] = -eta[1]
        eta[3] = -eta[3]
    return eta
