"""Sensitivity analysis of trained designs.

Two questions a circuit designer asks of the learned nonlinear circuits:

1. *What does each physical component actually control?*
   :func:`eta_sensitivity` differentiates the surrogate's η outputs w.r.t.
   the printable component values ω — the Jacobian of the VJP the
   optimizer descends — giving a per-component, per-parameter sensitivity
   matrix.

2. *Which component tolerance limits yield?*
   :func:`variation_attribution` perturbs one component group at a time
   (crossbar conductances, activation-circuit components, negative-weight
   components) with the printing-variation model and measures the accuracy
   drop attributable to each group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.evaluation import evaluate_mc
from repro.core.grad_kernels import surrogate_eta_bwd, surrogate_eta_fwd
from repro.core.params import snapshot_params, snapshot_surrogate
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import NonIdealityModel, Perturbation, VariationModel
from repro.surrogate.design_space import OMEGA_NAMES

ETA_NAMES = ("eta1", "eta2", "eta3", "eta4")


def eta_sensitivity(surrogate, omega: np.ndarray) -> np.ndarray:
    """Jacobian ∂η/∂ω̃ at one design point, from the surrogate's VJP.

    Each row is one :func:`~repro.core.grad_kernels.surrogate_eta_bwd`
    call — the VJP pNN training descends.  Sensitivities are reported
    w.r.t. *relative* component changes (``∂η / ∂ln ω`` = ω · ∂η/∂ω),
    which is the scale printing variation acts on and makes rows
    comparable across components of very different magnitudes.

    Returns
    -------
    Array of shape ``(4, 7)``: rows η1..η4, columns R1..L.
    """
    omega = np.asarray(omega, dtype=np.float64).reshape(1, 7)
    snapshot = snapshot_surrogate(surrogate)
    _, ctx = surrogate_eta_fwd(omega, snapshot)
    rows = [surrogate_eta_bwd(d_eta[None], ctx, snapshot)[0] for d_eta in np.eye(4)]
    return np.stack(rows) * omega[0]


def format_sensitivity(jacobian: np.ndarray) -> str:
    """Render an η/ω sensitivity matrix as a table."""
    lines = [f"{'':8s}" + "".join(f"{name:>10s}" for name in OMEGA_NAMES)]
    for i, row in enumerate(jacobian):
        lines.append(f"{ETA_NAMES[i]:8s}" + "".join(f"{value:>10.4f}" for value in row))
    return "\n".join(lines)


@dataclass
class AttributionResult:
    """Accuracy attribution of one component group's variation."""

    group: str
    mean: float
    std: float
    accuracy_drop: float


class _SelectiveVariation(NonIdealityModel):
    """Printing variation on one component group only.

    Every printed layer draws its ε triple by role — ``"theta"`` for the
    crossbar, ``"act"``/``"neg"`` for the activation and negative-weight
    circuits — so the group's role selects the draws to perturb.  The
    other roles get exact ones and consume no RNG.
    """

    _ROLES = {"theta": "theta", "activation": "act", "negweight": "neg"}

    def __init__(self, epsilon: float, group: str, seed: int):
        if group not in self._ROLES:
            raise ValueError(f"group must be one of {tuple(self._ROLES)}")
        self.inner = VariationModel(epsilon, seed=seed)
        self.role = self._ROLES[group]

    @property
    def is_nominal(self) -> bool:
        return False

    def sample_perturbation(self, n_mc: int, shape: Sequence[int],
                            role: str = "theta") -> Perturbation:
        if role == self.role:
            return self.inner.sample_perturbation(n_mc, shape)
        return Perturbation(np.ones((n_mc, *tuple(shape))))


def variation_attribution(
    pnn: PrintedNeuralNetwork,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 0.10,
    n_test: int = 50,
    seed: int = 0,
) -> List[AttributionResult]:
    """Attribute accuracy loss under variation to component groups.

    Evaluates the design with variation applied to *only one* group at a
    time — crossbar θ, activation-circuit ω, negative-weight ω — plus the
    all-groups reference, and reports the accuracy drop vs. nominal.

    The design is snapshotted once and every evaluation runs through the
    snapshot drivers of :mod:`repro.core.kernels`, which draw each
    layer's ε triple by the role :class:`_SelectiveVariation` keys on.
    """
    y = np.asarray(y, dtype=np.int64)
    params = snapshot_params(pnn)
    nominal = evaluate_mc(params, x, y, epsilon=0.0)
    results = []
    for group in ("theta", "activation", "negweight", "all"):
        if group == "all":
            variation = VariationModel(epsilon, seed=seed)
        else:
            variation = _SelectiveVariation(epsilon, group, seed=seed)
        predictions = params.predict(x, variation=variation, n_mc=n_test)
        accuracies = (predictions == y).mean(axis=1)
        results.append(
            AttributionResult(
                group=group,
                mean=float(accuracies.mean()),
                std=float(accuracies.std()),
                accuracy_drop=float(nominal.mean - accuracies.mean()),
            )
        )
    return results
