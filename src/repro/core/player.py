"""One printed layer: crossbar conductances + nonlinear circuits (Sec. II-C).

The layer owns a surrogate-conductance matrix θ of shape
``(in_features + 2, out_features)``: one row per input line plus a bias row
(driven by the 1 V rail) and a "down" row (driven by ground).  Eq. 1
routes negative weights through the learned negative-weight circuit:

    V_z,j = [ Σ_{i: θ_ij ≥ 0} |θ_ij| V_i + Σ_{i: θ_ij < 0} |θ_ij| inv(V_i) ]
            / Σ_i |θ_ij|

followed by the (learned) ptanh activation.  The equations live in
:mod:`repro.core.grad_kernels`; this module owns the learnable state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.conductance import ConductanceConfig
from repro.core.grad_kernels import project_printable
from repro.core.nonlinear import LearnableNonlinearCircuit
from repro.nn.module import Module, Parameter


class PrintedLayer(Module):
    """Crossbar + negative-weight circuit + ptanh activation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: LearnableNonlinearCircuit,
        negation: LearnableNonlinearCircuit,
        conductance: ConductanceConfig = ConductanceConfig(),
        apply_activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        if activation.kind != "ptanh":
            raise ValueError("activation circuit must be of kind 'ptanh'")
        if negation.kind != "negweight":
            raise ValueError("negation circuit must be of kind 'negweight'")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.conductance = conductance
        self.apply_activation = apply_activation
        self.theta = Parameter(conductance.init_theta((in_features + 2, out_features), rng))
        self.activation = activation
        self.negation = negation

    def printable_theta(self) -> np.ndarray:
        """The projected conductance matrix that would be printed."""
        return project_printable(
            self.theta.data, self.conductance.g_min, self.conductance.g_max
        )
