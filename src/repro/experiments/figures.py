"""Data series for the paper's data figures (Fig. 2 and Fig. 4).

The harness produces the *numbers behind the plots* (series of curves and
scatter data) plus lightweight ASCII renderings, since the evaluation
environment is headless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.circuits.negweight import simulate_negweight_curve_batch
from repro.circuits.ptanh import simulate_ptanh_curve_batch
from repro.surrogate.dataset_builder import SurrogateDataset
from repro.surrogate.features import extend_with_ratios
from repro.surrogate.fitting import fit_ptanh, ptanh_curve
from repro.surrogate.sampling import sample_design_points
from repro.surrogate.training import SurrogateTrainingResult


@dataclass
class CharacteristicCurves:
    """Fig. 2: characteristic curves for a handful of design points."""

    omegas: np.ndarray
    v_in: np.ndarray
    ptanh_curves: np.ndarray      # (n_curves, n_points)
    negweight_curves: np.ndarray  # (n_curves, n_points)


def figure2_series(
    n_curves: int = 5, n_points: int = 41, seed: int = 3
) -> CharacteristicCurves:
    """Simulate the Fig. 2 curve families (left: ptanh, right: inv).

    Sweeps every candidate design in one batch per circuit and keeps the
    first ``n_curves`` whose sweeps converged and whose ptanh curve swings
    at least 0.15 V: expressive curves, as the paper's figure shows.
    """
    omegas = sample_design_points(max(n_curves * 4, 16), seed=seed)
    v_in, ptanh_curves, ptanh_ok = simulate_ptanh_curve_batch(omegas, n_points=n_points)
    _, neg_curves, neg_ok = simulate_negweight_curve_batch(omegas, n_points=n_points)
    swings = ptanh_curves.max(axis=1) - ptanh_curves.min(axis=1)
    keep = np.nonzero(ptanh_ok & neg_ok & (swings >= 0.15))[0][:n_curves]
    return CharacteristicCurves(
        omegas=omegas[keep],
        v_in=v_in,
        ptanh_curves=ptanh_curves[keep],
        negweight_curves=neg_curves[keep],
    )


@dataclass
class Figure4Left:
    """Fig. 4 left: one simulated sweep and its fitted tanh curve."""

    v_in: np.ndarray
    v_out: np.ndarray
    eta: np.ndarray
    fitted: np.ndarray
    rmse: float


def figure4_left(seed: int = 5, n_points: int = 41) -> Figure4Left:
    """Pick an expressive design point, sweep it, fit η (Eq. 2).

    Sweeps 64 candidate designs in one batch and fits the first converged
    curve that swings at least 0.3 V.
    """
    omegas = sample_design_points(64, seed=seed)
    v_in, curves, ok = simulate_ptanh_curve_batch(omegas, n_points=n_points)
    swings = curves.max(axis=1) - curves.min(axis=1)
    expressive = np.nonzero(ok & (swings >= 0.3))[0]
    if not expressive.size:
        raise RuntimeError("no expressive curve found; check the EGT calibration")
    v_out = curves[expressive[0]]
    fit = fit_ptanh(v_in, v_out)
    return Figure4Left(
        v_in=v_in,
        v_out=v_out,
        eta=fit.eta,
        fitted=ptanh_curve(fit.eta, v_in),
        rmse=fit.rmse,
    )


@dataclass
class Figure4Right:
    """Fig. 4 right: predicted vs. true normalized η per split."""

    true: Dict[str, np.ndarray]
    predicted: Dict[str, np.ndarray]
    r2_test: np.ndarray


def figure4_right(
    dataset: SurrogateDataset, result: SurrogateTrainingResult
) -> Figure4Right:
    """Scatter data (train / val / test) for a trained surrogate."""
    features = extend_with_ratios(dataset.omega)
    x = result.input_normalizer.normalize(features)
    y = result.eta_normalizer.normalize(dataset.eta)
    true, predicted = {}, {}
    for split, idx in result.splits.items():
        true[split] = y[idx]
        predicted[split] = result.model.predict(x[idx])
    return Figure4Right(true=true, predicted=predicted, r2_test=result.r2_per_eta)


def ascii_curves(
    v_in: np.ndarray, curves: np.ndarray, height: int = 12, width: int = 61
) -> str:
    """Render a curve family as ASCII art (for headless benches)."""
    lo = float(np.min(curves))
    hi = float(np.max(curves))
    span = max(hi - lo, 1e-9)
    grid = [[" "] * width for _ in range(height)]
    markers = "abcdefghij"
    for c, curve in enumerate(curves):
        xs = np.linspace(0, width - 1, len(v_in)).round().astype(int)
        ys = ((curve - lo) / span * (height - 1)).round().astype(int)
        for x_pix, y_pix in zip(xs, ys):
            grid[height - 1 - y_pix][x_pix] = markers[c % len(markers)]
    lines = ["".join(row) for row in grid]
    lines.append("-" * width)
    lines.append(f"Vin: {v_in[0]:.2f} .. {v_in[-1]:.2f} V    Vout: {lo:.2f} .. {hi:.2f} V")
    return "\n".join(lines)
