"""The NN-based surrogate model η̂(ω̃) (Sec. III-A c).

After hyperparameter tuning the paper settles on a 13-layer fully-connected
network with widths 10-9-9-8-8-7-7-6-6-6-5-5-5-4: ten extended/normalized
design features in, the four normalized auxiliary parameters η̃ out.  The
same architecture is used here (tanh hidden activations, linear output);
smaller widths can be passed for fast tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.autograd.tensor import Tensor, no_grad

#: The exact layer widths reported in the paper (input → ... → output).
PAPER_LAYER_WIDTHS = (10, 9, 9, 8, 8, 7, 7, 6, 6, 6, 5, 5, 5, 4)

#: A reduced architecture for unit tests and smoke profiles.
TINY_LAYER_WIDTHS = (10, 8, 6, 4)


class SurrogateMLP(nn.Module):
    """Fully-connected regression network mapping ω̃ (10) to η̃ (4)."""

    def __init__(
        self,
        widths: Sequence[int] = PAPER_LAYER_WIDTHS,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise ValueError("need at least an input and an output width")
        if widths[0] != 10 or widths[-1] != 4:
            raise ValueError("surrogate maps 10 extended features to 4 η parameters")
        rng = rng if rng is not None else np.random.default_rng()
        layers = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:-1]):
            layers.append(nn.Linear(fan_in, fan_out, rng=rng))
            layers.append(nn.Tanh())
        layers.append(nn.Linear(widths[-2], widths[-1], rng=rng))
        self.widths = widths
        self.net = nn.Sequential(*layers)

    def forward(self, features: Tensor) -> Tensor:
        """Predict normalized η̃ for normalized, ratio-extended features."""
        return self.net(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out convenience wrapper (no gradient tape)."""
        with no_grad():
            return self.forward(Tensor(features)).numpy()
