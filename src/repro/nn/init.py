"""Weight initialization."""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a (fan_in, fan_out) matrix."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)
