"""A physics-based analytic surrogate (baseline for the NN surrogate).

The paper approximates ω → η with a regression NN.  As an ablation baseline
(and as a fast, training-free fallback) this module derives η directly from
first-order circuit analysis of the synthetic topology:

- divider ratios attenuate the input: ``k1 = R2/(R1+R2)``, ``k2 = R4/(R3+R4)``;
- the stage-1 trip point sits where the EGT sinks ``VDD/2`` through its
  effective load ``R5 ∥ (R3+R4)``, giving the overdrive
  ``V* = sqrt(VDD / (β R_load))`` and hence ``η3 ≈ (Vt + V*) / k1``;
- small-signal gains ``A ≈ sqrt(β VDD R_load)`` set the steepness η4;
- the output swing (and with it η1, η2) shrinks smoothly when the trip
  point leaves the 0..1 V input window.

First-order analysis ignores channel-length modulation and the interaction
between stages, so predictions are refined by an optional per-output affine
calibration against a small simulated dataset (:meth:`AnalyticSurrogate.calibrate`).
The physics lives in :func:`repro.core.grad_kernels.analytic_eta_fwd`, next
to its hand-derived VJP, making the analytic surrogate a drop-in replacement
for the NN surrogate inside the pNN.
"""

from __future__ import annotations

import numpy as np

from repro.spice.egt import EGTModel
from repro.surrogate.dataset_builder import SurrogateDataset


class AnalyticSurrogate:
    """Closed-form ω → η map with optional affine calibration.

    Implements the same ``eta_from_omega`` interface as
    :class:`~repro.surrogate.pipeline.CircuitSurrogate`; inside the pNN it
    runs as a frozen :class:`~repro.core.params.SurrogateParams` snapshot.
    """

    def __init__(self, kind: str = "ptanh", model: EGTModel = None):
        if kind not in ("ptanh", "negweight"):
            raise ValueError("kind must be 'ptanh' or 'negweight'")
        self.kind = kind
        self.model = model or EGTModel()
        # Per-η affine calibration (identity until calibrate() is called).
        self.scale = np.ones(4)
        self.shift = np.zeros(4)

    def eta_from_omega(self, omega: np.ndarray) -> np.ndarray:
        """Map printable ω ``(..., 7)`` to calibrated η ``(..., 4)``."""
        # Deferred: repro.core imports repro.surrogate during its own init.
        from repro.core.grad_kernels import surrogate_eta_fwd
        from repro.core.params import snapshot_surrogate

        eta, _ = surrogate_eta_fwd(np.asarray(omega, dtype=np.float64), snapshot_surrogate(self))
        return eta

    def calibrate(self, dataset: SurrogateDataset) -> "AnalyticSurrogate":
        """Fit the per-η affine correction on a simulated dataset."""
        if dataset.kind != self.kind:
            raise ValueError(f"dataset is for {dataset.kind!r}, surrogate for {self.kind!r}")
        self.scale = np.ones(4)
        self.shift = np.zeros(4)
        raw = self.eta_from_omega(dataset.omega)
        for j in range(4):
            design = np.stack([raw[:, j], np.ones(len(raw))], axis=1)
            coeffs, *_ = np.linalg.lstsq(design, dataset.eta[:, j], rcond=None)
            self.scale[j], self.shift[j] = coeffs
        return self
