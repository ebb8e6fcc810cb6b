"""Printable conductance constraints (Sec. II-C).

The learnable parameters θ are *surrogate conductances*: the magnitude is
the conductance to print, the sign selects whether the input passes through
the negative-weight circuit first.  Printable conductances live in
``{0} ∪ [G_min, G_max]``, so θ must lie in
``[−G_max, −G_min] ∪ {0} ∪ [G_min, G_max]``; infeasible values are
projected in the forward pass with a straight-through gradient
(:func:`repro.core.grad_kernels.project_printable`).

Because the crossbar weights ``g_i / G`` are scale-invariant (multiplying a
whole column by a constant cancels), the surrogate conductances are treated
as dimensionless; only the dynamic range ``G_max / G_min`` matters for
trainability, and the physical scale is chosen at export time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class ConductanceConfig:
    """Dynamic range of printable (surrogate) conductances."""

    g_min: float = 0.01
    g_max: float = 10.0
    #: Fraction of conductances initialized negative.  Mostly-positive
    #: initialization keeps the initial crossbar output a convex combination
    #: of the (0..1 V) inputs — i.e. inside the active region of the tanh
    #: circuits — which avoids a dead saturated regime at the start of
    #: training; negative weights still emerge freely during optimization
    #: because the straight-through projection lets θ change sign.
    init_negative_fraction: float = 0.1

    def __post_init__(self):
        if not 0 < self.g_min < self.g_max:
            raise ValueError("need 0 < g_min < g_max")
        if not 0 <= self.init_negative_fraction <= 1:
            raise ValueError("init_negative_fraction must be in [0, 1]")

    def init_theta(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Random θ init: uniform magnitudes, mostly-positive signs."""
        magnitude = rng.uniform(self.g_min, 1.0, size=shape)
        sign = np.where(rng.random(size=shape) < self.init_negative_fraction, -1.0, 1.0)
        return magnitude * sign
