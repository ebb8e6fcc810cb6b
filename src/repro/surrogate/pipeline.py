"""End-to-end surrogate construction and the :class:`SurrogateBundle`.

A bundle holds one trained surrogate per nonlinear circuit type (ptanh and
negative weight) together with the normalization statistics, and exposes the
map ω → η used inside the pNN (Fig. 5).

Building a bundle runs the full Fig. 3 pipeline (QMC sampling → DC sweeps →
η fitting → MLP training), which takes minutes at paper scale; bundles are
therefore cached on disk (see :mod:`repro.surrogate.io`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.spice.egt import EGTModel
from repro.surrogate.dataset_builder import build_surrogate_dataset
from repro.surrogate.design_space import DESIGN_SPACE, DesignSpace
from repro.surrogate.features import FeatureNormalizer
from repro.surrogate.model import PAPER_LAYER_WIDTHS, SurrogateMLP
from repro.surrogate.training import SurrogateTrainingResult, train_surrogate


@dataclass
class CircuitSurrogate:
    """The trained ω → η map for one nonlinear circuit type."""

    model: SurrogateMLP
    input_normalizer: FeatureNormalizer
    eta_normalizer: FeatureNormalizer
    kind: str
    test_mse: float = float("nan")

    def eta_from_omega(self, omega: np.ndarray) -> np.ndarray:
        """Map physical parameters ω ``(..., 7)`` to tanh parameters η ``(..., 4)``.

        Runs the frozen snapshot of this surrogate through the same
        ratio-extend → normalize → MLP → denormalize kernel the pNN uses
        (:func:`repro.core.grad_kernels.mlp_eta_fwd`).
        """
        # Deferred: repro.core imports repro.surrogate during its own init.
        from repro.core.grad_kernels import surrogate_eta_fwd
        from repro.core.params import snapshot_surrogate

        eta, _ = surrogate_eta_fwd(np.asarray(omega, dtype=np.float64), snapshot_surrogate(self))
        return eta


@dataclass
class SurrogateBundle:
    """The two circuit surrogates the pNN needs (activation + negation)."""

    ptanh: CircuitSurrogate
    negweight: CircuitSurrogate
    space: DesignSpace

    def surrogate(self, kind: str) -> CircuitSurrogate:
        if kind == "ptanh":
            return self.ptanh
        if kind == "negweight":
            return self.negweight
        raise KeyError(f"unknown circuit kind {kind!r}")


def build_surrogate_bundle(
    n_points: int = 2048,
    sweep_points: int = 33,
    widths: Sequence[int] = PAPER_LAYER_WIDTHS,
    max_epochs: int = 3000,
    patience: int = 300,
    space: DesignSpace = DESIGN_SPACE,
    model: Optional[EGTModel] = None,
    seed: int = 0,
    cache_dir: Optional[Union[str, Path]] = None,
    verbose: bool = False,
) -> SurrogateBundle:
    """Run the full Fig. 3 pipeline for both circuit types.

    Parameters
    ----------
    n_points:
        QMC design points per circuit (paper: 10 000; the default trades a
        little surrogate accuracy for minutes instead of hours of sweeps).
    cache_dir:
        When given, a bundle matching ``(n_points, widths, seed)`` is loaded
        from / saved to this directory.
    """
    from repro.surrogate.io import bundle_cache_path, load_bundle, save_bundle

    if cache_dir is not None:
        path = bundle_cache_path(cache_dir, n_points, widths, seed)
        if path.exists():
            try:
                return load_bundle(path)
            except Exception as exc:   # corrupt/truncated cache: rebuild it
                if verbose:
                    print(f"[surrogate] cached bundle {path} unreadable ({exc}); rebuilding")
                path.unlink(missing_ok=True)

    surrogates: Dict[str, CircuitSurrogate] = {}
    results: Dict[str, SurrogateTrainingResult] = {}
    for kind in ("ptanh", "negweight"):
        if verbose:
            print(f"[surrogate] building dataset for {kind} ({n_points} QMC points)")
        dataset = build_surrogate_dataset(
            kind,
            n_points=n_points,
            sweep_points=sweep_points,
            space=space,
            model=model,
            seed=seed,
        )
        if verbose:
            stats = dataset.stats
            if stats is not None:
                print(
                    f"[surrogate] {kind}: kept {stats.n_kept}/{stats.n_sampled} "
                    f"(dropped: {stats.n_convergence_error} no-convergence, "
                    f"{stats.n_low_swing} low-swing, {stats.n_high_rmse} high-RMSE, "
                    f"{stats.n_out_of_bounds} out-of-bounds); training MLP"
                )
            else:
                print(f"[surrogate] {kind}: {len(dataset)} identifiable curves; training MLP")
        result = train_surrogate(
            dataset, widths=widths, max_epochs=max_epochs, patience=patience, seed=seed
        )
        if verbose:
            print(
                f"[surrogate] {kind}: val MSE {result.val_mse:.2e}, "
                f"test MSE {result.test_mse:.2e}, R² {np.round(result.r2_per_eta, 3)}"
            )
        surrogates[kind] = CircuitSurrogate(
            model=result.model,
            input_normalizer=result.input_normalizer,
            eta_normalizer=result.eta_normalizer,
            kind=kind,
            test_mse=result.test_mse,
        )
        results[kind] = result

    bundle = SurrogateBundle(
        ptanh=surrogates["ptanh"], negweight=surrogates["negweight"], space=space
    )
    if cache_dir is not None:
        save_bundle(bundle, bundle_cache_path(cache_dir, n_points, widths, seed))
    return bundle
