"""Feature engineering for the surrogate models (Sec. III-A c).

The divider ratios ``k1 = R2/R1`` and ``k2 = R4/R3`` and the geometry ratio
``k3 = W/L`` are critical circuit features that independent per-parameter
normalization would wash out, so ω is manually extended to

    [R1, R2, R3, R4, R5, W, L, k1, k2, k3]

before min-max normalization.  The normalizer also handles the η targets
and stores the statistics needed for later denormalization (they ship with
the saved surrogate bundle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

#: Names of the ten extended surrogate input features.
FEATURE_NAMES = ("R1", "R2", "R3", "R4", "R5", "W", "L", "k1", "k2", "k3")


def extend_with_ratios(omega: np.ndarray) -> np.ndarray:
    """Append [k1, k2, k3] to ω.

    ``omega`` may have any number of leading batch dimensions; the last axis
    must hold the 7 physical parameters of Table I.  The formula is
    :func:`repro.core.grad_kernels.extend_with_ratios`, the one the NN
    surrogate kernel runs inside the pNN.  (The import is deferred:
    ``repro.core`` imports this module during its own init.)
    """
    from repro.core.grad_kernels import extend_with_ratios as extend

    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape[-1] != 7:
        raise ValueError("last axis of omega must hold the 7 Table-I parameters")
    return extend(omega)


@dataclass
class FeatureNormalizer:
    """Min-max normalization with stored statistics.

    Maps values into [0, 1] per dimension; exactly invertible through
    :meth:`denormalize`.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if self.minimum.shape != self.maximum.shape:
            raise ValueError("min/max shapes differ")
        if np.any(self.maximum <= self.minimum):
            raise ValueError("every feature needs a positive range")

    @classmethod
    def fit(cls, values: np.ndarray) -> "FeatureNormalizer":
        """Compute statistics over the leading axis of ``values``."""
        values = np.asarray(values, dtype=np.float64)
        minimum = values.min(axis=0)
        maximum = values.max(axis=0)
        degenerate = maximum - minimum < 1e-12
        maximum = np.where(degenerate, minimum + 1.0, maximum)
        return cls(minimum=minimum, maximum=maximum)

    @property
    def span(self) -> np.ndarray:
        return self.maximum - self.minimum

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.minimum) / self.span

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.span + self.minimum

    def state(self) -> Dict[str, np.ndarray]:
        return {"minimum": self.minimum.copy(), "maximum": self.maximum.copy()}

    @classmethod
    def from_state(cls, state: Dict[str, np.ndarray]) -> "FeatureNormalizer":
        return cls(minimum=np.asarray(state["minimum"]), maximum=np.asarray(state["maximum"]))
