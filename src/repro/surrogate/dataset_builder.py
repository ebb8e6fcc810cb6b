"""Building the (ω, η) regression dataset via circuit simulation (Fig. 3).

For every QMC-sampled design point the ptanh circuit and the
negative-weight circuit are swept with the DC solver and the resulting
transfer curves are fitted with Eq. 2 / Eq. 3.  Degenerate design points
whose curves carry too little swing to identify η (or whose fit quality is
poor) are filtered out, mirroring the paper's restriction of the design
space to "tanh-like characteristic curves".

Design points are swept in chunks through the stacked MNA solver
(:func:`repro.spice.solve_dc_batch`) and the surviving curves are fitted in
lockstep (:func:`repro.surrogate.fitting.fit_ptanh_batch`).  Curves whose
output swing cannot clear ``min_swing`` are dropped before fitting: the
swing depends only on the simulated curve, so classifying first skips
useless fits without changing which points are kept.  Results do not
depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro import telemetry
from repro.circuits.negweight import simulate_negweight_curve_batch
from repro.circuits.ptanh import simulate_ptanh_curve_batch
from repro.spice.egt import EGTModel
from repro.surrogate.design_space import DESIGN_SPACE, DesignSpace
from repro.surrogate.fitting import fit_ptanh_batch
from repro.surrogate.sampling import sample_design_points

#: Circuit kinds understood by the builder.
CIRCUIT_KINDS = ("ptanh", "negweight")


@dataclass
class BuildStats:
    """Where the sampled design points went during a dataset build.

    Every sampled ω lands in exactly one bucket, so the four drop counters
    plus ``n_kept`` always sum to ``n_sampled``.  Drops are classified in
    priority order: convergence failure, then insufficient swing, then fit
    RMSE, then the η bounds box.
    """

    n_sampled: int = 0
    n_kept: int = 0
    n_convergence_error: int = 0
    n_low_swing: int = 0
    n_high_rmse: int = 0
    n_out_of_bounds: int = 0

    @property
    def n_dropped(self) -> int:
        return (
            self.n_convergence_error
            + self.n_low_swing
            + self.n_high_rmse
            + self.n_out_of_bounds
        )


@dataclass
class SurrogateDataset:
    """Paired physical parameters and fitted auxiliary parameters."""

    omega: np.ndarray          # (n, 7)
    eta: np.ndarray            # (n, 4)
    rmse: np.ndarray           # (n,) fit quality per point
    kind: str                  # "ptanh" or "negweight"
    stats: Optional[BuildStats] = None

    def __post_init__(self):
        if len(self.omega) != len(self.eta):
            raise ValueError("omega and eta must pair up")

    def __len__(self) -> int:
        return len(self.omega)


def simulate_curve_batch(
    omega_batch: np.ndarray, kind: str, n_points: int, model: Optional[EGTModel]
):
    """Dispatch to the right batched circuit sweep for ``kind``."""
    if kind == "ptanh":
        return simulate_ptanh_curve_batch(omega_batch, n_points=n_points, model=model)
    if kind == "negweight":
        return simulate_negweight_curve_batch(omega_batch, n_points=n_points, model=model)
    raise ValueError(f"unknown circuit kind {kind!r}; expected one of {CIRCUIT_KINDS}")


def build_surrogate_dataset(
    kind: str,
    n_points: int = 10_000,
    sweep_points: int = 41,
    space: DesignSpace = DESIGN_SPACE,
    model: Optional[EGTModel] = None,
    seed: int = 0,
    min_swing: float = 0.02,
    max_rmse: float = 0.05,
    progress: Optional[Callable[[int, int], None]] = None,
    chunk_size: int = 512,
) -> SurrogateDataset:
    """Sample, simulate and fit; return the filtered regression dataset.

    Parameters
    ----------
    kind:
        ``"ptanh"`` (Eq. 2 targets) or ``"negweight"`` (Eq. 3 targets).
    n_points:
        Number of QMC design points (the paper uses 10 000).
    sweep_points:
        DC sweep resolution per curve.
    min_swing / max_rmse:
        Quality gates: curves with less output swing than ``min_swing`` or a
        worse fit RMSE than ``max_rmse`` are dropped (their η are not
        identifiable and would only add label noise).
    progress:
        Optional ``progress(done, total)`` callback; called before each
        chunk, plus one final ``progress(total, total)`` tick.
    chunk_size:
        Designs per stacked solve; results are chunk-size invariant.
    """
    if kind not in CIRCUIT_KINDS:
        raise ValueError(f"unknown circuit kind {kind!r}; expected one of {CIRCUIT_KINDS}")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")

    omegas = sample_design_points(n_points, space=space, seed=seed)
    total = len(omegas)
    stats = BuildStats(n_sampled=total)
    negated = kind == "negweight"
    kept_omega, kept_eta, kept_rmse = [], [], []

    tel = telemetry.get()
    build_start = perf_counter()

    for start in range(0, total, chunk_size):
        if progress is not None:
            progress(start, total)
        chunk = omegas[start : start + chunk_size]
        with tel.span("surrogate.chunk", kind=kind, start=start,
                      size=int(len(chunk))):
            v_in, curves, ok = simulate_curve_batch(
                chunk, kind, sweep_points, model
            )
            stats.n_convergence_error += int(np.sum(~ok))

            # Swing pre-filter: the swing is a function of the curve
            # alone, so low-swing designs are classified before paying
            # for a fit.
            targets = -curves if negated else curves
            swings = targets.max(axis=1) - targets.min(axis=1)
            low_swing = ok & (swings < min_swing)
            stats.n_low_swing += int(np.sum(low_swing))
            fit_lanes = np.nonzero(ok & ~low_swing)[0]
            if fit_lanes.size == 0:
                continue

            fits = fit_ptanh_batch(v_in, curves[fit_lanes], negated=negated)
            for lane, fit in zip(fit_lanes, fits):
                if fit.rmse > max_rmse:
                    stats.n_high_rmse += 1
                    continue
                if not fit.in_bounds:
                    stats.n_out_of_bounds += 1
                    continue
                stats.n_kept += 1
                kept_omega.append(chunk[lane])
                kept_eta.append(fit.eta)
                kept_rmse.append(fit.rmse)

    if progress is not None:
        progress(total, total)

    if tel.enabled:
        # BuildStats as one summary event for the whole build.
        tel.event(
            "surrogate.build",
            kind=kind,
            chunk_size=chunk_size,
            dur_s=perf_counter() - build_start,
            n_sampled=stats.n_sampled,
            n_kept=stats.n_kept,
            n_convergence_error=stats.n_convergence_error,
            n_low_swing=stats.n_low_swing,
            n_high_rmse=stats.n_high_rmse,
            n_out_of_bounds=stats.n_out_of_bounds,
        )

    if not kept_omega:
        raise RuntimeError(
            f"no identifiable curves among {n_points} samples; "
            "check the EGT model calibration"
        )
    return SurrogateDataset(
        omega=np.asarray(kept_omega),
        eta=np.asarray(kept_eta),
        rmse=np.asarray(kept_rmse),
        kind=kind,
        stats=stats,
    )
